package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"labflow/internal/core"
	"labflow/internal/datalog"
	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/seqio"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
)

// Every oracle is fed the program's real output (it must pass) and one
// deliberately wrong output (it must fail with errIncorrect).

func wantIncorrect(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errIncorrect) {
		t.Fatalf("%s: oracle returned %v, want an output-check failure", what, err)
	}
}

func memDB(t *testing.T) *labbase.DB {
	t.Helper()
	db, err := labbase.Open(memstore.Open("test"), labbase.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// smallRun is a quick Section-10 run over an in-memory store.
func smallRun(t *testing.T, seed int64) (*labbase.DB, core.Params, *core.RunResult) {
	t.Helper()
	p := labflow1Params(seed)
	p.BaseClones, p.Intervals = 12, 2
	db := memDB(t)
	rr, err := core.RunStore(db, p)
	if err != nil {
		t.Fatal(err)
	}
	return db, p, rr
}

// hitPubs publishes random sequences with families through the program's
// seqio, recording the hit lists it returns as the stored ones.
func hitPubs(t *testing.T) []published {
	gen := seqio.NewGen(7)
	hom, err := seqio.NewHomologyDB(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var pubs []published
	var seqs []string
	for i := 0; i < 40; i++ {
		s := gen.Sequence(600)
		if len(seqs) > 0 && rng.Intn(3) == 0 {
			s = gen.Mutate(seqs[rng.Intn(len(seqs))], 0.08)
		}
		if i%7 == 3 {
			s = s[:100] + "NNNN" + s[104:] // assembly holes break k-mer runs
		}
		seqs = append(seqs, s)
		acc := fmt.Sprintf("LF%07d", i+1)
		hits := hom.Search(s, 10, 0.02)
		hom.Add(acc, s)
		vals := make([]labbase.Value, len(hits))
		for j, h := range hits {
			vals[j] = labbase.ListOf(labbase.String(h.Accession), labbase.Float64(h.Score))
		}
		pubs = append(pubs, published{accession: acc, consensus: s, kmers: kmers(s, 8), hits: labbase.ListOf(vals...)})
	}
	return pubs
}

func TestHitOracle(t *testing.T) {
	pubs := hitPubs(t)
	all := make([]int, len(pubs))
	found := 0
	for i := range all {
		all[i] = i
		found += len(pubs[i].hits.List)
	}
	if found == 0 {
		t.Fatal("test data has no hits; it checks nothing")
	}
	if err := checkHitSample(pubs, all, 10, 0.02); err != nil {
		t.Fatalf("correct hit lists rejected: %v", err)
	}
	// Perturb one stored score by one unit in the last place.
	for i := range pubs {
		if len(pubs[i].hits.List) > 0 {
			h := pubs[i].hits.List[0]
			bad := labbase.ListOf(h.List[0], labbase.Float64(math.Nextafter(h.List[1].Float, 2)))
			pubs[i].hits = labbase.ListOf(append([]labbase.Value{bad}, pubs[i].hits.List[1:]...)...)
			wantIncorrect(t, "perturbed score", checkHitSample(pubs, []int{i}, 10, 0.02))
			return
		}
	}
}

func TestHitOracleOnRun(t *testing.T) {
	db, p, _ := smallRun(t, 5)
	done, err := db.MaterialsInState(core.StCloneDone)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := loadPublished(db, done)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(pubs))
	for i := range all {
		all[i] = i
	}
	if err := checkHitSample(pubs, all, p.MaxHits, p.MinScore); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replaySearch(pubs, p); err != nil {
		t.Fatal(err)
	}
	// A stored list in the wrong order.
	for i := range pubs {
		if l := pubs[i].hits.List; len(l) >= 2 {
			l[0], l[1] = l[1], l[0]
			wantIncorrect(t, "swapped hits", checkHitSample(pubs, []int{i}, p.MaxHits, p.MinScore))
			return
		}
	}
	t.Skip("no clone with two hits at this scale")
}

// liar answers MostRecent with the step recorded last, ignoring valid time.
type liar struct{ labbase.Reader }

func (l liar) MostRecent(m storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	hist, err := l.History(m)
	if err != nil || len(hist) == 0 {
		return labbase.Value{}, 0, false, err
	}
	for i := len(hist) - 1; i >= 0; i-- {
		st, err := l.GetStep(hist[i].Step)
		if err != nil {
			return labbase.Value{}, 0, false, err
		}
		for _, a := range st.Attrs {
			if a.Name == attr {
				return a.Value, st.OID, true, nil
			}
		}
	}
	return labbase.Value{}, 0, false, nil
}

func TestMostRecentOracle(t *testing.T) {
	db := memDB(t)
	var m storage.OID
	if err := inTxn(db, func() error {
		if _, err := db.DefineMaterialClass("sample", ""); err != nil {
			return err
		}
		var err error
		if m, err = db.CreateMaterial("sample", "m", "", 1); err != nil {
			return err
		}
		// Recorded out of valid-time order: the second step is older.
		for _, vt := range []int64{20, 10, 20, 5} {
			if _, err := db.RecordStep(labbase.StepSpec{Class: "measure", ValidTime: vt, Materials: []storage.OID{m},
				Attrs: []labbase.AttrValue{{Name: "seq", Value: labbase.Int64(vt)}}}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := checkMostRecent(db, []storage.OID{m}, []string{"seq"}); err != nil {
		t.Fatalf("correct most-recent rejected: %v", err)
	}
	wantIncorrect(t, "recording-order answer", checkMostRecent(liar{db}, []storage.OID{m}, []string{"seq"}))
}

func TestClosureOracle(t *testing.T) {
	db := memDB(t)
	d, err := buildDAG(db, 9, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := d.ancestors(d.sink)
	if len(want) != 6*3 {
		t.Fatalf("diamond of depth 6 width 2 has %d ancestors of its sink, want 18", len(want))
	}
	b := lbq.New(db)
	if err := b.Engine().Consult(core.ProvenanceRules()); err != nil {
		t.Fatal(err)
	}
	for _, goal := range []string{"derived_from(%d, A)", "derived(%d, A)"} {
		q := fmt.Sprintf(goal, uint64(d.sink))
		sols, err := b.Query(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]storage.OID, len(sols))
		for i, s := range sols {
			got[i], _ = lbq.TermOID(datalog.Resolve(s["A"]))
		}
		if err := checkAnswerSet(q, got, want); err != nil {
			t.Fatalf("correct closure rejected: %v", err)
		}
		wantIncorrect(t, "closure missing an answer", checkAnswerSet(q, got[1:], want))
		wrong := append([]storage.OID{d.sink}, got[1:]...)
		wantIncorrect(t, "closure with a wrong answer", checkAnswerSet(q, wrong, want))
	}
}

func TestLedgerOracle(t *testing.T) {
	db := memDB(t)
	var mats []storage.OID
	led := newLedger()
	if err := inTxn(db, func() error {
		if _, err := db.DefineMaterialClass("sample", ""); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			m, err := db.CreateMaterial("sample", fmt.Sprint("m", i), "", 1)
			if err != nil {
				return err
			}
			mats = append(mats, m)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		mat int
		vt  int64
	}{{0, 10}, {1, 11}, {0, 12}, {2, 12}, {0, 12}, {0, 9}}
	for i, s := range steps {
		if _, err := db.PutSteps([]labbase.StepSpec{{Class: "measure", ValidTime: s.vt, Materials: []storage.OID{mats[s.mat]},
			Attrs: []labbase.AttrValue{{Name: "seq", Value: labbase.Int64(int64(i))}}}}); err != nil {
			t.Fatal(err)
		}
		led.ack(mats[s.mat], s.vt, int64(i))
	}
	if err := led.verify(db, mats); err != nil {
		t.Fatalf("correct store rejected: %v", err)
	}
	wantIncorrect(t, "recording-order answer", led.verify(liar{db}, mats))
	led.ack(mats[1], 3, 99) // acknowledged but never written
	wantIncorrect(t, "lost step", led.verify(db, mats))
}

func TestQuiesceOracle(t *testing.T) {
	db, _, rr := smallRun(t, 2)
	if err := checkQuiesce(db, rr.Clones); err != nil {
		t.Fatalf("quiesced run rejected: %v", err)
	}
	done, err := db.MaterialsInState(core.StCloneDone)
	if err != nil {
		t.Fatal(err)
	}
	if err := inTxn(db, func() error { return db.SetState(done[0], core.StCloneBlasted) }); err != nil {
		t.Fatal(err)
	}
	wantIncorrect(t, "clone left before incorporation", checkQuiesce(db, rr.Clones))
}

func TestKmersMatchSeqio(t *testing.T) {
	// The oracle's k-mer Jaccard must agree with seqio's on holed and
	// plain sequences: a disagreement would fail correct runs.
	pubs := hitPubs(t)
	hom, err := seqio.NewHomologyDB(8)
	if err != nil {
		t.Fatal(err)
	}
	hom.Add(pubs[0].accession, pubs[0].consensus)
	for _, pb := range pubs[1:] {
		want := jaccard(pb.kmers, pubs[0].kmers)
		var got float64
		for _, h := range hom.Search(pb.consensus, 0, 0) {
			got = h.Score
		}
		if got != want {
			t.Fatalf("%s: seqio scores %v, oracle %v", pb.accession, got, want)
		}
	}
}

func TestViewOracle(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", svcRulesFile))
	if err != nil {
		t.Fatal(err)
	}
	st, err := serviceSetup(5, string(b), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.db.Close()
	eng := lbq.New(st.db)
	if err := eng.Engine().Consult(st.rules); err != nil {
		t.Fatal(err)
	}
	for _, v := range svcViews {
		sols, err := eng.Query(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]map[string]string, len(sols))
		for i, sol := range sols {
			rows[i] = map[string]string{}
			for name, term := range sol {
				rows[i][name] = datalog.Resolve(term).String()
			}
		}
		if err := st.checkView(v, rows); err != nil {
			t.Fatalf("correct %s rejected: %v", v, err)
		}
	}
	if len(st.covered) == 0 {
		t.Fatal("no clone is well covered")
	}
	// A wrong set of the right size: one covered clone swapped for one of
	// its tclones, which is not a clone at all.
	var rows []map[string]string
	for _, m := range st.covered[1:] {
		rows = append(rows, map[string]string{"M": fmt.Sprint(uint64(m))})
	}
	rows = append(rows, map[string]string{"M": fmt.Sprint(uint64(st.tclones[0]))})
	wantIncorrect(t, "well_covered with a tclone for a clone", st.checkView("well_covered(M)", rows))
	n := st.views["count_finished(N)"]
	wantIncorrect(t, "count_finished off by one", st.checkView("count_finished(N)", []map[string]string{{"N": fmt.Sprint(n + 1)}}))
}
