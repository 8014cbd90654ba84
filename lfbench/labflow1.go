package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"time"

	"labflow/internal/core"
	"labflow/internal/labbase"
	"labflow/internal/seqio"
	"labflow/internal/storage"
)

// labflow1 is the paper's Section-10 run: the seeded Appendix-B event
// stream through core.RunStore to 2.0X on a file-backed Texas+TC store whose
// resident-page bound is below the final database size. One round is one
// whole run on a fresh store; a run repeats rounds for its measuring time
// and reports per-round medians.

// l1Attrs are the attributes the most-recent oracle checks.
var l1Attrs = []string{"sequence", "quality", "ok", "position", "coverage", "num_tclones", "hits", "consensus", "accession"}

type l1Round struct {
	wall          time.Duration
	steps, ops    uint64
	size, live    uint64
	faults, pages uint64
	digest        uint64
	pubs          []published
	allocBytes    uint64
	allocs        uint64
	aggs          map[string]agg
}

// l1Setups is how many untimed rounds come before the timed ones. They are
// the workload's set-up: a store opened from nothing and one whole checked
// run, which brings the process's heap and the host's file cache to the
// state the timed rounds run in. setup_s is their median; store creation
// alone takes about a millisecond, and its median moved threefold between
// runs of the same build with the state of the host's file system.
const l1Setups = 3

func labflow1Params(seed int64) core.Params {
	p := core.DefaultParams()
	p.Seed = seed
	return p
}

// roundSeed derives a round's event-stream seed from the run's seed. Each
// round runs another stream, so a run's medians cover many streams and do
// not hinge on how much homology work one stream happens to carry.
func roundSeed(seed int64, round int) int64 { return seed*1_000_003 + int64(round) }

func runLabflow1(cfg config) (*result, error) {
	// One goroutine does all of the run's work; a second P would only let
	// the collector and the scheduler move it between cores, which spreads
	// the timings without adding capacity the run could use.
	runtime.GOMAXPROCS(1)
	if cfg.trace {
		return labflow1Traced(cfg)
	}
	res := newResult()
	var setup, rate, steps, bps samples
	for i := 1; i <= l1Setups; i++ {
		t0 := time.Now()
		if _, err := labflow1Round(cfg, labflow1Params(roundSeed(cfg.seed, -i)), -i, nil); err != nil {
			return res, fmt.Errorf("set-up round: %w", err)
		}
		setup.add(time.Since(t0).Seconds())
	}
	rss := startRSS()
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last <= cfg.seconds; round++ {
		t0 := time.Now()
		r, err := labflow1Round(cfg, labflow1Params(roundSeed(cfg.seed, round)), round, nil)
		last = time.Since(t0)
		if errors.Is(err, errFailed) {
			// The program does not say how far a failed run got, so
			// the whole round counts as one failed operation.
			res.Attempted++
			res.Failed++
			continue
		}
		if err != nil {
			return res, err
		}
		rate.add(float64(r.ops) / r.wall.Seconds())
		steps.add(float64(r.steps) / r.wall.Seconds())
		bps.add(float64(r.size) / float64(r.steps))
		res.Attempted += int64(r.ops)
		rss.window()
	}
	if len(rate) == 0 {
		return res, fmt.Errorf("every round failed")
	}
	res.set("setup_s", setup.median())
	res.set("ops_per_s", rate.median())
	res.set("peak_rss_mb", rss.finish())
	res.set("steps_per_s", steps.median())
	res.set("db_bytes_per_step", bps.median())
	return res, nil
}

// labflow1Round runs one whole Section-10 run. With a tracer, the storage
// manager and the store are wrapped and the run's spans are returned.
func labflow1Round(cfg config, p core.Params, round int, t *tracer) (*l1Round, error) {
	dir, err := roundDir(cfg, "labflow1", round)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	runtime.GC() // every round starts from the same heap, not the last round's garbage
	sm, err := core.MakeStore(core.StoreTexasTC, dir, p)
	if err != nil {
		return nil, err
	}
	if t != nil {
		sm = &tManager{t: t, in: sm}
	}
	db, err := labbase.Open(sm, labbase.DefaultOptions())
	if err != nil {
		sm.Close()
		return nil, err
	}
	defer db.Close()
	r := &l1Round{}

	var store labbase.Store = db
	if t != nil {
		if store, err = wrapStore(t, db); err != nil {
			return nil, err
		}
		t.take()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	var o *openSpan
	if t != nil {
		o = t.push("core.RunStore")
	}
	rr, err := core.RunStore(store, p)
	if t != nil {
		t.pop(o)
	}
	r.wall = time.Since(t1)
	runtime.ReadMemStats(&ms1)
	if t != nil {
		r.aggs = t.take()
	}
	if err != nil {
		return nil, fmt.Errorf("run: %w (%w)", err, errFailed)
	}
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.steps = rr.StepCount
	r.ops = rr.Total.Steps + rr.Total.Queries
	r.faults, r.pages = rr.Total.MajFlt, rr.Total.PageWrites
	_, st := db.StoreStats()
	r.size, r.live = st.SizeBytes, st.LiveBytes
	if r.steps == 0 {
		return nil, incorrect("the run recorded no steps")
	}
	if r.size <= uint64(p.ResidentPages)*8192 {
		return nil, fmt.Errorf("database of %d bytes fits in the %d-page resident bound; the workload must exceed it", r.size, p.ResidentPages)
	}
	if err := checkLabflow1(db, p, rr, round, r); err != nil {
		return r, err
	}
	return r, nil
}

// checkLabflow1 runs the labflow1 oracles over the finished store and
// fills r.digest and r.pubs.
func checkLabflow1(db *labbase.DB, p core.Params, rr *core.RunResult, round int, r *l1Round) error {
	if err := checkQuiesce(db, rr.Clones); err != nil {
		return err
	}
	done, err := db.MaterialsInState(core.StCloneDone)
	if err != nil {
		return err
	}
	pubs, err := loadPublished(db, done)
	if err != nil {
		return err
	}
	r.pubs = pubs
	rng := rand.New(rand.NewSource(p.Seed*7919 + int64(round)))
	sample := []int{len(pubs) - 1}
	for i := 0; i < 8; i++ {
		sample = append(sample, rng.Intn(len(pubs)))
	}
	if err := checkHitSample(pubs, sample, p.MaxHits, p.MinScore); err != nil {
		return err
	}

	var mats []storage.OID
	if err := db.ScanAllMaterials(func(m *labbase.Material) error {
		mats = append(mats, m.OID)
		return nil
	}); err != nil {
		return err
	}
	picked := make([]storage.OID, 16)
	for i := range picked {
		picked[i] = mats[rng.Intn(len(mats))]
	}
	if err := checkMostRecent(db, picked, l1Attrs); err != nil {
		return err
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %d %d", rr.Dump, rr.StepCount, rr.Total.Queries)
	for _, pb := range pubs {
		fmt.Fprintf(h, "|%s %s %v", pb.accession, pb.consensus, pb.hits)
	}
	r.digest = h.Sum64()
	return nil
}

// checkQuiesce checks the run's end state: the injected clones are all in
// the store, every clone is incorporated and every tclone is sequenced.
func checkQuiesce(r labbase.Reader, injected uint64) error {
	all, err := r.CountMaterials("clone") // is-a inclusive: tclones too
	if err != nil {
		return err
	}
	tclones, err := r.CountMaterials("tclone")
	if err != nil {
		return err
	}
	clones := all - tclones
	if clones != injected || clones == 0 {
		return incorrect("%d clones in the store, the run injected %d", clones, injected)
	}
	for _, c := range []struct {
		state string
		want  uint64
	}{{core.StCloneDone, clones}, {core.StTcloneDone, tclones}} {
		n, err := r.CountInState(c.state)
		if err != nil {
			return err
		}
		if n != c.want {
			return incorrect("%d materials in %s at quiesce, want %d", n, c.state, c.want)
		}
	}
	return nil
}

// replaySearch re-runs the run's homology searches from the stored
// consensus sequences, in accession order, timing seqio alone. Each search
// must reproduce the stored hit list.
func replaySearch(pubs []published, p core.Params) (total time.Duration, calls int, err error) {
	hom, err := seqio.NewHomologyDB(8)
	if err != nil {
		return 0, 0, err
	}
	for _, pb := range pubs {
		t0 := time.Now()
		hits := hom.Search(pb.consensus, p.MaxHits, p.MinScore)
		hom.Add(pb.accession, pb.consensus)
		total += time.Since(t0)
		calls++
		want := make([]hit, len(hits))
		for i, h := range hits {
			want[i] = hit{h.Accession, h.Score}
		}
		if err := checkHitList(pb.accession, pb.hits, want); err != nil {
			return 0, 0, err
		}
	}
	return total, calls, nil
}

// labflow1Traced runs pairs of rounds on the same stream, one untraced and
// one traced: the untraced one is the reference output and the overhead
// baseline.
func labflow1Traced(cfg config) (*result, error) {
	res := newResult()
	t := newTracer()
	var (
		plainWall, tracedWall samples
		traced, plain         []*l1Round
	)
	start := time.Now()
	var last time.Duration
	for pair := 0; pair == 0 || time.Since(start)+last <= cfg.seconds; pair++ {
		t0 := time.Now()
		p := labflow1Params(roundSeed(cfg.seed, pair))
		u, err := labflow1Round(cfg, p, 2*pair, nil)
		if err != nil {
			return res, err
		}
		r, err := labflow1Round(cfg, p, 2*pair+1, t)
		if err != nil {
			return res, err
		}
		last = time.Since(t0)
		if r.digest != u.digest {
			return res, incorrect("traced round of stream %d produced different outputs (Dump, hit lists) than the untraced one", p.Seed)
		}
		res.Attempted += int64(u.ops + r.ops)
		plain, traced = append(plain, u), append(traced, r)
		plainWall.addDur(u.wall)
		tracedWall.addDur(r.wall)
	}
	if err := t.writeSpans(spanFile(cfg)); err != nil {
		return res, err
	}

	n := float64(len(traced))
	var steps, ops, faults, pages, size, live float64
	var aggs []map[string]agg
	for _, r := range traced {
		steps += float64(r.steps)
		ops += float64(r.ops)
		faults += float64(r.faults)
		pages += float64(r.pages)
		size += float64(r.size)
		live += float64(r.live)
		aggs = append(aggs, r.aggs)
	}
	sum := mergeAggs(aggs...)
	perCall := func(name string) float64 { return micros(sum[name].total) / float64(sum[name].n) }

	var searchTotal time.Duration
	var searchCalls int
	for _, r := range traced {
		d, c, err := replaySearch(r.pubs, core.DefaultParams())
		if err != nil {
			return res, err
		}
		searchTotal += d
		searchCalls += c
	}
	var allocB, allocN, plainOps float64
	for _, r := range plain {
		allocB += float64(r.allocBytes)
		allocN += float64(r.allocs)
		plainOps += float64(r.ops)
	}

	setLayerMetrics(res, sum, ops)
	res.set("runtime.alloc_bytes_per_op", allocB/plainOps)
	res.set("runtime.allocs_per_op", allocN/plainOps)
	res.set("trace.overhead_pct", 100*(tracedWall.median()/plainWall.median()-1))
	res.set("seqio.search_s", searchTotal.Seconds()/n)
	res.set("seqio.search_us", micros(searchTotal)/float64(searchCalls))
	res.set("core.self_s", sum["core.RunStore"].self.Seconds()/n)
	res.set("labbase.record_step_us", perCall("labbase.RecordStep"))
	res.set("labbase.most_recent_us", perCall("labbase.MostRecent"))
	res.set("labbase.history_us", perCall("labbase.History"))
	res.set("storage.faults_per_kstep", 1000*faults/steps)
	res.set("storage.page_writes_per_step", pages/steps)
	res.set("storage.bytes_per_live_byte", size/live)
	return res, nil
}
