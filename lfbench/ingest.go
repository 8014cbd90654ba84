package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"labflow/internal/core"
	"labflow/internal/labbase"
	"labflow/internal/labbase/shard"
	"labflow/internal/storage"
	"labflow/internal/storage/ostore"
	"labflow/internal/storage/repl"
)

// ingest is bulk step recording into a durable store, then a restart: one
// goroutine issues PutSteps batches into an in-process 2-shard shard.DB
// over two file-backed OStore members; the steps hit uniformly random
// materials and some are recorded out of valid-time order. The managers are
// then abandoned without Close, reopened (log replay plus index rebuild)
// and verified against the benchmark's own record of every acknowledged
// step. One round is one fresh store; every round of a seed gets the same
// inputs.

// The inputs follow the repository's own figures where it has them: as many
// materials as lfload preloads by default (-materials 1000), batches of the
// paper's gel batch (core.DefaultParams().BatchSize, 16), and steps out of
// valid-time order at the paper run's rate and reach
// (core.DefaultParams().OutOfOrderProb and OutOfOrderSkew: 5%, up to 50
// ticks back). The step count and pool size are set so the database ends
// several times larger than the pools.
const (
	ingShards    = 2
	ingMaterials = 1000
	ingSteps     = 4000
	ingPoolPages = 64   // per member: 512 KiB
	ingWarmup    = 2000 // steps of the untimed warm-up store

	// ingCheckpointEvery is past the ~250 commits a round makes per
	// member, so the timed ingest runs no checkpoint and the restart
	// replays the round's whole redo log. At ostore's default of 8 the
	// checkpoint fsyncs put this host's shared disk into the numbers:
	// five runs per set spread the ingest rate 18-32% and the batches'
	// 99th percentile 44-62%; without them, four runs spread 2.7% and
	// 3.5% in a quiet hour.
	ingCheckpointEvery = 1024
)

var ingBatch = core.DefaultParams().BatchSize

// ingInputs are one seed's generated inputs.
type ingInputs struct {
	names []string
	steps []ingStep
}

type ingStep struct {
	mat   int // index into names
	vt    int64
	value float64
}

func ingestInputs(seed int64, steps int) *ingInputs {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(seed ^ 0x1A6E57))
	in := &ingInputs{names: make([]string, ingMaterials), steps: make([]ingStep, steps)}
	for i := range in.names {
		in.names[i] = fmt.Sprintf("s%d_%05d", seed, i)
	}
	vt := int64(1000)
	for i := range in.steps {
		vt++
		s := ingStep{mat: rng.Intn(ingMaterials), vt: vt, value: rng.Float64()}
		if rng.Float64() < p.OutOfOrderProb {
			s.vt -= 1 + rng.Int63n(p.OutOfOrderSkew) // as workflow.Engine dates a late step
		}
		in.steps[i] = s
	}
	return in
}

type ingRound struct {
	setup, ingest      time.Duration
	reopen, open       time.Duration
	steps, ops, failed int64
	size, live         uint64
	faults, pageWrites uint64
	replayed           int
	batches            samples // each acknowledged PutSteps call, in us
	allocBytes, allocs uint64
	aggs, verifyAggs   map[string]agg
	digest             uint64
}

// checkSize refuses a configuration whose database would fit in the
// buffer pools: ingest is the workload larger than the caches.
func (r *ingRound) checkSize() error {
	if pools := uint64(ingShards * ingPoolPages * 8192); r.size < 4*pools {
		return fmt.Errorf("database of %d bytes is not several times the %d bytes of buffer pool", r.size, pools)
	}
	return nil
}

func openMembers(dir string, infos []repl.RecoveryInfo) ([]storage.Manager, error) {
	var ms []storage.Manager
	for k := 0; k < ingShards; k++ {
		opts := ostore.Options{Path: filepath.Join(dir, fmt.Sprintf("shard%d.db", k)),
			PoolPages: ingPoolPages, CheckpointEvery: ingCheckpointEvery}
		if infos != nil {
			opts.Recovery = &infos[k]
		}
		m, err := ostore.Open(opts)
		if err != nil {
			for _, o := range ms {
				o.Close()
			}
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// ingestRound runs one round: set-up, timed ingest, abandon, timed restart
// (reopen with replay, index rebuild, first read), verification. With a tracer the managers and the store are wrapped.
func ingestRound(cfg config, in *ingInputs, tag string, round int, t *tracer) (*ingRound, error) {
	dir, err := roundDir(cfg, tag, round)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &ingRound{}

	runtime.GC() // every round starts from the same heap, not the last round's garbage
	t0 := time.Now()
	ms, err := openMembers(dir, nil)
	if err != nil {
		return nil, err
	}
	// The abandoned managers are closed only after the reopened store is
	// verified and closed, so they never write while it runs.
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()
	wrapped := ms
	if t != nil {
		wrapped = make([]storage.Manager, len(ms))
		for k, m := range ms {
			wrapped[k] = &tManager{t: t, in: m}
		}
	}
	sdb, err := shard.Open(wrapped, labbase.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var db labbase.Store = sdb
	if t != nil {
		if db, err = wrapStore(t, sdb); err != nil {
			return nil, err
		}
	}
	mats := make([]storage.OID, len(in.names))
	if err := inTxn(db, func() error {
		if _, err := db.DefineMaterialClass("sample", ""); err != nil {
			return err
		}
		if _, err := db.DefineState("active"); err != nil {
			return err
		}
		if _, _, err := db.DefineStepClass("measure", []labbase.AttrDef{
			{Name: "value", Kind: labbase.KindFloat}, {Name: "seq", Kind: labbase.KindInt}}); err != nil {
			return err
		}
		for i, name := range in.names {
			if mats[i], err = db.CreateMaterial("sample", name, "active", 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	specs := make([]labbase.StepSpec, len(in.steps))
	for i, s := range in.steps {
		specs[i] = labbase.StepSpec{Class: "measure", ValidTime: s.vt, Materials: []storage.OID{mats[s.mat]},
			Attrs: []labbase.AttrValue{{Name: "value", Value: labbase.Float64(s.value)}, {Name: "seq", Value: labbase.Int64(int64(i))}}}
	}

	r.setup = time.Since(t0)
	if t != nil {
		t.take()
	}
	led := newLedger()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	for lo := 0; lo < len(specs); lo += ingBatch {
		hi := min(lo+ingBatch, len(specs))
		b0 := time.Now()
		if _, err := db.PutSteps(specs[lo:hi]); err != nil {
			r.failed++ // not acknowledged: the ledger expects none of its steps
			continue
		}
		r.batches.addDur(time.Since(b0))
		r.steps += int64(hi - lo)
		for i := lo; i < hi; i++ {
			led.ack(mats[in.steps[i].mat], in.steps[i].vt, int64(i))
		}
	}
	r.ingest = time.Since(t1)
	runtime.ReadMemStats(&ms1)
	if t != nil {
		r.aggs = t.take()
	}
	r.allocBytes, r.allocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	_, st := sdb.StoreStats()
	r.size, r.live, r.faults, r.pageWrites = st.SizeBytes, st.LiveBytes, st.Faults, st.PageWrites

	// Abandon: no Close, no flush. Reopen from what is on disk.
	t2 := time.Now()
	infos := make([]repl.RecoveryInfo, ingShards)
	ms2, err := openMembers(dir, infos)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r.reopen = time.Since(t2)
	t3 := time.Now()
	db2, err := shard.Open(ms2, labbase.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer db2.Close()
	r.open = time.Since(t3)
	if _, _, _, err := db2.MostRecent(mats[0], "seq"); err != nil {
		return nil, fmt.Errorf("first read after restart: %w", err)
	}
	for _, info := range infos {
		r.replayed += info.Replayed
	}
	if r.replayed == 0 {
		return nil, fmt.Errorf("the restart replayed no log records; it must recover the round's commits")
	}

	var check labbase.Reader = db2
	if t != nil {
		if check, err = wrapStore(t, db2); err != nil {
			return nil, err
		}
		t.take()
	}
	if err := led.verify(check, mats); err != nil {
		return r, err
	}
	if t != nil {
		r.verifyAggs = t.take()
	}
	rng := rand.New(rand.NewSource(int64(round)))
	sample := make([]storage.OID, 16)
	for i := range sample {
		sample[i] = mats[rng.Intn(len(mats))]
	}
	if err := checkMostRecent(db2, sample, []string{"value", "seq"}); err != nil {
		return r, err
	}
	dump, err := db2.Dump()
	if err != nil {
		return r, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", dump)
	for _, m := range mats {
		v, _, _, err := db2.MostRecent(m, "value")
		if err != nil {
			return r, err
		}
		fmt.Fprintf(h, "|%v", v)
	}
	r.digest = h.Sum64()
	r.ops = int64(len(specs)/ingBatch) + 2*int64(len(mats))
	return r, nil
}

// ingestWarmup ingests a small store untimed, so the timed rounds do not
// pay for the process's first page faults and heap growth.
func ingestWarmup(cfg config) error {
	_, err := ingestRound(cfg, ingestInputs(cfg.seed+1, ingWarmup), "ingest-warmup", 0, nil)
	return err
}

func runIngest(cfg config) (*result, error) {
	// One P, as for the other workloads: the shard fan-out still applies
	// the two members' halves of a batch on two goroutines, but they take
	// turns. With two Ps on this 2-vCPU shared host five 30-s runs spread
	// the ingest rate 12.9k-17.0k steps/s (18.7% quartile spread); with
	// one, 15.1k-16.8k (8.2%).
	runtime.GOMAXPROCS(1)
	in := ingestInputs(cfg.seed, ingSteps)
	if cfg.trace {
		return ingestTraced(cfg, in)
	}
	res := newResult()
	if err := ingestWarmup(cfg); err != nil {
		return res, err
	}
	var setup, rate, write, restart, bps samples
	var ref uint64
	rss := startRSS()
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last <= cfg.seconds; round++ {
		t0 := time.Now()
		r, err := ingestRound(cfg, in, "ingest", round, nil)
		if err == nil {
			err = r.checkSize()
		}
		if err != nil {
			return res, err
		}
		last = time.Since(t0)
		if round == 0 {
			ref = r.digest
		} else if r.digest != ref {
			return res, incorrect("round %d of seed %d left a different database than round 0", round, cfg.seed)
		}
		setup.add(r.setup.Seconds())
		rate.add(float64(r.steps) / r.ingest.Seconds())
		write = append(write, r.batches...)
		restart.add((r.reopen + r.open).Seconds())
		bps.add(float64(r.size) / float64(r.steps))
		res.Attempted += r.ops
		res.Failed += r.failed
		rss.window()
	}
	res.set("setup_s", setup.median())
	res.set("ops_per_s", rate.median())
	res.set("peak_rss_mb", rss.finish())
	res.set("db_bytes_per_step", bps.median())
	res.set("restart_s", restart.median())
	res.set("write_p50_us", write.median())
	if v, ok := write.p99(); ok {
		res.set("write_p99_us", v)
	}
	return res, nil
}

// ingestTraced alternates untraced and traced rounds of the same inputs.
func ingestTraced(cfg config, in *ingInputs) (*result, error) {
	res := newResult()
	if err := ingestWarmup(cfg); err != nil {
		return res, err
	}
	t := newTracer()
	var plainRate, tracedRate samples
	var traced, plain []*ingRound
	var ref uint64
	start := time.Now()
	var last time.Duration
	for round := 0; round < 2 || time.Since(start)+last <= cfg.seconds; round++ {
		t0 := time.Now()
		var tr *tracer
		if round%2 == 1 {
			tr = t
		}
		r, err := ingestRound(cfg, in, "ingest", round, tr)
		if err == nil {
			err = r.checkSize()
		}
		if err != nil {
			return res, err
		}
		last = time.Since(t0)
		if round == 0 {
			ref = r.digest
		} else if r.digest != ref {
			return res, incorrect("traced round %d left a different database than the untraced round", round)
		}
		res.Attempted += r.ops
		res.Failed += r.failed
		rate := float64(r.steps) / r.ingest.Seconds()
		if tr != nil {
			traced = append(traced, r)
			tracedRate.add(rate)
		} else {
			plain = append(plain, r)
			plainRate.add(rate)
		}
	}
	if err := t.writeSpans(spanFile(cfg)); err != nil {
		return res, err
	}

	var aggs, verify []map[string]agg
	var steps, faults, pages, size, live, ingestWall float64
	for _, r := range traced {
		aggs = append(aggs, r.aggs)
		verify = append(verify, r.verifyAggs)
		steps += float64(r.steps)
		faults += float64(r.faults)
		pages += float64(r.pageWrites)
		size += float64(r.size)
		live += float64(r.live)
		ingestWall += r.ingest.Seconds()
	}
	sum := mergeAggs(aggs...)
	layers := layerSums(sum)
	var reopen, open, replayed, allocB, allocN, plainSteps float64
	for _, r := range plain {
		reopen += r.reopen.Seconds()
		open += r.open.Seconds()
		replayed += float64(r.replayed)
		allocB += float64(r.allocBytes)
		allocN += float64(r.allocs)
		plainSteps += float64(r.steps)
	}
	np := float64(len(plain))
	va := mergeAggs(verify...)

	setLayerMetrics(res, sum, steps)
	res.set("runtime.alloc_bytes_per_op", allocB/plainSteps)
	res.set("runtime.allocs_per_op", allocN/plainSteps)
	res.set("trace.overhead_pct", 100*(plainRate.median()/tracedRate.median()-1))
	res.set("labbase.put_steps_us", micros(sum["labbase.PutSteps"].total)/float64(sum["labbase.PutSteps"].n))
	res.set("labbase.open_s", open/np)
	res.set("labbase.history_us", micros(va["labbase.History"].total)/float64(va["labbase.History"].n))
	res.set("labbase.most_recent_us", micros(va["labbase.MostRecent"].total)/float64(va["labbase.MostRecent"].n))
	res.set("storage.faults_per_kstep", 1000*faults/steps)
	res.set("storage.page_writes_per_step", pages/steps)
	res.set("storage.bytes_per_live_byte", size/live)
	res.set("storage.reopen_s", reopen/np)
	res.set("storage.replayed_records", replayed/np)
	res.set("shard.overlap", layers["storage"].total.Seconds()/ingestWall)
	return res, nil
}
