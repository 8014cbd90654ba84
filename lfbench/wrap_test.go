package main

import (
	"testing"
	"time"

	"labflow/internal/core"
	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// The traced wrappers must answer the program's optional-interface
// assertions exactly as the wrapped store does.
func TestWrapForwardsOptionalInterfaces(t *testing.T) {
	plain := memDB(t)
	sdb, err := shard.Open([]storage.Manager{memstore.Open("a"), memstore.Open("b")}, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	member, err := shard.OpenMember(memstore.Open("m"), 1, 2, labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	for _, s := range []labbase.Store{plain, sdb, member} {
		w, err := wrapStore(newTracer(), s)
		if err != nil {
			t.Fatal(err)
		}
		_, a1 := s.(shardsIface)
		_, a2 := w.(shardsIface)
		_, b1 := s.(batchesIface)
		_, b2 := w.(batchesIface)
		_, c1 := s.(infoIface)
		_, c2 := w.(infoIface)
		if a1 != a2 || b1 != b2 || c1 != c2 {
			t.Fatalf("%T: wrapper answers Shards/ConcurrentBatches/ShardInfo %v/%v/%v, store %v/%v/%v", s, a2, b2, c2, a1, b1, c1)
		}
		if a1 && w.(shardsIface).Shards() != 2 {
			t.Fatalf("wrapped shard count %d, want 2", w.(shardsIface).Shards())
		}
		if c1 {
			if i, n := w.(infoIface).ShardInfo(); i != 1 || n != 2 {
				t.Fatalf("wrapped member is %d/%d, want 1/2", i, n)
			}
		}
	}
}

// A traced run takes the same code paths as an untraced one: the same
// final Dump and the same stored hit lists.
func TestTracedRunMatchesPlain(t *testing.T) {
	p := labflow1Params(4)
	p.BaseClones, p.Intervals = 12, 2
	run := func(tr *tracer) (labbase.DumpStats, []published) {
		var sm storage.Manager = memstore.Open("x")
		if tr != nil {
			sm = &tManager{t: tr, in: sm}
		}
		db, err := labbase.Open(sm, labbase.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var store labbase.Store = db
		if tr != nil {
			if store, err = wrapStore(tr, db); err != nil {
				t.Fatal(err)
			}
		}
		rr, err := core.RunStore(store, p)
		if err != nil {
			t.Fatal(err)
		}
		done, err := db.MaterialsInState(core.StCloneDone)
		if err != nil {
			t.Fatal(err)
		}
		pubs, err := loadPublished(db, done)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Dump, pubs
	}
	tr := newTracer()
	d1, p1 := run(nil)
	d2, p2 := run(tr)
	if d1 != d2 || len(p1) != len(p2) {
		t.Fatalf("traced Dump %+v (%d clones), untraced %+v (%d)", d2, len(p2), d1, len(p1))
	}
	for i := range p1 {
		if p1[i].accession != p2[i].accession || !p1[i].hits.Equal(p2[i].hits) {
			t.Fatalf("clone %d: traced hits %v, untraced %v", i, p2[i].hits, p1[i].hits)
		}
	}
	aggs := tr.take()
	if aggs["labbase.RecordStep"].n == 0 || aggs["storage.Read"].n == 0 {
		t.Fatalf("traced run recorded no labbase or storage spans: %d names", len(aggs))
	}
}

// Self time subtracts the union of child spans, so concurrent leaves are
// not subtracted twice.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.push("labbase.PutSteps")
	end1 := tr.leaf("storage.Commit")
	end2 := tr.leaf("storage.Commit")
	time.Sleep(20 * time.Millisecond)
	end1()
	end2()
	time.Sleep(20 * time.Millisecond)
	tr.pop(outer)
	a := tr.take()
	put, commit := a["labbase.PutSteps"], a["storage.Commit"]
	if commit.n != 2 || put.n != 1 {
		t.Fatalf("counts %d commits, %d puts", commit.n, put.n)
	}
	if put.self < 15*time.Millisecond || put.self > put.total-15*time.Millisecond {
		t.Fatalf("self %v of total %v: the overlapping children must be covered once", put.self, put.total)
	}
}

func TestScanExcludesCallback(t *testing.T) {
	tr := newTracer()
	q := tr.push("datalog.view")
	err := scan(tr, "labbase.ScanAllMaterials", func(fn func(int) error) error {
		for i := 0; i < 3; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}, func(int) error { time.Sleep(10 * time.Millisecond); return nil })
	tr.pop(q)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.take()
	if s := a["labbase.ScanAllMaterials"]; s.n != 1 || s.total > 10*time.Millisecond {
		t.Fatalf("scan counted %d calls over %v: the callback's time belongs to the caller", s.n, s.total)
	}
	if a["datalog.view"].self < 25*time.Millisecond {
		t.Fatalf("caller self %v should include the callbacks", a["datalog.view"].self)
	}
}
