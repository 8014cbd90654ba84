package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"labflow/internal/core"
	"labflow/internal/datalog"
	"labflow/internal/labbase"
	"labflow/internal/lbq"
	"labflow/internal/storage"
	"labflow/internal/storage/memstore"
	"labflow/internal/wire"
)

// service is the LabBase data server under one client's closed loop:
// wire.Server in process over an in-memory store built to 1.0X of the
// paper's database plus a seeded diamond derivation DAG, with the shipped
// rules consulted. One client connection sends the next request only when
// the previous one has been answered.

// A round is ten flights at lfload's default read share of 0.9: nine
// flights of pipelined most-recent probes and one flight of steps written
// as one PutSteps batch. A flight is as deep as the paper's gel batch
// (core.DefaultParams().BatchSize, 16 materials), the unit in which its lab
// handles materials; lfload's default depth of 1 would time the loopback
// round trip more than the server. The probes ask for the attributes the
// paper run's own probes ask for (core's queryAttrs). Each round then asks
// one view, one native closure and one tabled closure: nothing in the
// repository records how often a client asks for these (lfload's
// -querymix and -lineagemix default to 0), so each kind gets one timed
// sample a round.
const (
	svcReadFlights = 9
	svcDAGDepth    = 8 // diamond stages, as lfload's -lineagemix DAG
	svcDAGWidth    = 2 // parallel derivations per stage, as lfload's
	svcSetups      = 9 // set-ups per run; setup_s is their median
	svcWarmup      = 500 * time.Millisecond
	svcRecheck     = "recheck"
	svcRulesFile   = "rules/labflow1.lbq"
)

// svcFlight is the depth of one flight: probes pipelined, or steps batched.
var svcFlight = core.DefaultParams().BatchSize

// svcProbeAttrs are the attributes the probes ask for.
var svcProbeAttrs = []string{"sequence", "quality", "ok", "position", "coverage", "num_tclones", "hits"}

// svcViews are the paper's view queries the client rotates through.
var svcViews = []string{"count_finished(N)", "count_interesting(N)", "well_covered(M)"}

// svcState is one set-up: the served store and what the checks expect of it.
type svcState struct {
	db      *labbase.DB
	d       *dag
	mats    []storage.OID  // every material, the probe targets
	tclones []storage.OID  // the write targets
	views   map[string]int // the counting views' answers
	covered []storage.OID  // well_covered's answer, sorted
	rules   string
	p       core.Params
	sm      *tManager // the store's manager, wrapped for the traced pass; nil otherwise
}

// svcServer is a running wire server with one connected client.
type svcServer struct {
	srv    *wire.Server
	ln     net.Listener
	client *wire.Client
	served chan error
}

func (s *svcServer) stop() error {
	s.client.Close()
	s.ln.Close()
	s.srv.Shutdown()
	return <-s.served
}

// serve starts a wire server over store on a loopback port and dials it.
// With a tracer, the listener's connections are traced too.
func serve(st *svcState, store labbase.Store, t *tracer) (*svcServer, error) {
	srv := wire.NewServer(store)
	srv.SetLogf(nil)
	if err := srv.Bridge().Engine().Consult(st.rules); err != nil {
		return nil, fmt.Errorf("consult rules: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{srv: srv, ln: ln, served: make(chan error, 1)}
	var l net.Listener = ln
	if t != nil {
		l = &tListener{Listener: ln, t: t}
		s.ln = l
	}
	go func() { s.served <- srv.Serve(l) }()
	if s.client, err = wire.Dial(ln.Addr().String()); err != nil {
		ln.Close()
		srv.Shutdown()
		<-s.served
		return nil, err
	}
	return s, nil
}

// serviceSetup builds the served database: the Section-10 run to 1.0X, the
// derivation DAG and the write step class, then the expected view answers.
// For the traced pass the store's manager is wrapped, with no tracer until
// the traced stretch starts.
func serviceSetup(seed int64, rules string, traced bool) (*svcState, error) {
	p := labflow1Params(seed)
	p.Intervals = 2 // 1.0X
	var sm storage.Manager = memstore.Open("service")
	var wrapped *tManager
	if traced {
		wrapped = &tManager{in: sm}
		sm = wrapped
	}
	db, err := labbase.Open(sm, labbase.DefaultOptions())
	if err != nil {
		return nil, err
	}
	st := &svcState{db: db, rules: rules, p: p, sm: wrapped}
	rr, err := core.RunStore(db, p)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("build 1.0X: %w", err)
	}
	if st.d, err = buildDAG(db, seed, svcDAGDepth, svcDAGWidth); err != nil {
		db.Close()
		return nil, err
	}
	if err := inTxn(db, func() error {
		_, _, err := db.DefineStepClass(svcRecheck, []labbase.AttrDef{
			{Name: "quality", Kind: labbase.KindFloat}, {Name: "ok", Kind: labbase.KindBool}})
		return err
	}); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.ScanAllMaterials(func(m *labbase.Material) error {
		st.mats = append(st.mats, m.OID)
		if m.Class == "tclone" {
			st.tclones = append(st.tclones, m.OID)
		}
		return nil
	}); err != nil {
		db.Close()
		return nil, err
	}
	if st.views, st.covered, err = expectViews(db, rr); err != nil {
		db.Close()
		return nil, err
	}
	return st, nil
}

// expectViews computes the views' answers from direct reads: the counts
// of the counting views and the sorted set of well-covered clones.
func expectViews(db *labbase.DB, rr *core.RunResult) (map[string]int, []storage.OID, error) {
	done, err := db.MaterialsInState(core.StCloneDone)
	if err != nil {
		return nil, nil, err
	}
	var finished, interesting int
	var covered []storage.OID
	for _, m := range done {
		mat, err := db.GetMaterial(m)
		if err != nil {
			return nil, nil, err
		}
		if mat.Class != "clone" {
			continue
		}
		finished++
		if v, _, ok, err := db.MostRecent(m, "num_hits"); err != nil {
			return nil, nil, err
		} else if ok && v.Int > 0 {
			interesting++
		}
		if v, _, ok, err := db.MostRecent(m, "coverage"); err != nil {
			return nil, nil, err
		} else if ok && v.Float >= 1.5 {
			covered = append(covered, m)
		}
	}
	if uint64(finished) != rr.Clones {
		return nil, nil, incorrect("%d finished clones, the run injected %d", finished, rr.Clones)
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
	return map[string]int{
		"count_finished(N)":    finished,
		"count_interesting(N)": interesting,
	}, covered, nil
}

func inTxn(db labbase.Store, fn func() error) error {
	if err := db.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		db.Commit()
		return err
	}
	return db.Commit()
}

// buildDAG records a diamond derivation DAG: depth stages, each splitting
// the current material into width derived ones and merging them into the
// next. The seed names the materials and jitters the valid times.
func buildDAG(db labbase.Store, seed int64, depth, width int) (*dag, error) {
	d := &dag{parents: make(map[storage.OID][]storage.OID)}
	rng := rand.New(rand.NewSource(seed ^ 0xDA6))
	vt := int64(1) << 40
	err := inTxn(db, func() error {
		if _, err := db.DefineMaterialClass("prov_mat", ""); err != nil {
			return err
		}
		if _, err := db.DefineState("made"); err != nil {
			return err
		}
		mat := func(tag string) (storage.OID, error) {
			vt += 1 + rng.Int63n(3)
			m, err := db.CreateMaterial("prov_mat", fmt.Sprintf("dag%d_%s", seed, tag), "made", vt)
			d.nodes = append(d.nodes, m)
			return m, err
		}
		derive := func(ins []storage.OID, out storage.OID) error {
			vt += 1 + rng.Int63n(3)
			refs := make([]labbase.Value, len(ins))
			for i, in := range ins {
				refs[i] = labbase.Ref(in)
			}
			_, err := db.RecordStep(labbase.StepSpec{
				Class: "derive", ValidTime: vt,
				Materials: append(append([]storage.OID{}, ins...), out),
				Attrs:     []labbase.AttrValue{{Name: lbq.InputsAttr, Value: labbase.ListOf(refs...)}},
			})
			d.parents[out] = append(d.parents[out], ins...)
			return err
		}
		cur, err := mat("m0")
		if err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			mids := make([]storage.OID, width)
			for j := range mids {
				if mids[j], err = mat(fmt.Sprintf("a%d_%d", i, j)); err != nil {
					return err
				}
				if err := derive([]storage.OID{cur}, mids[j]); err != nil {
					return err
				}
			}
			if cur, err = mat(fmt.Sprintf("m%d", i+1)); err != nil {
				return err
			}
			if err := derive(mids, cur); err != nil {
				return err
			}
		}
		d.sink = cur
		return nil
	})
	return d, err
}

// svcLoop is one closed-loop phase's samples and counts.
type svcLoop struct {
	svcSamples              // the whole timed loop
	windows    []svcSamples // each second of it
	allocBytes uint64
	allocs     uint64
}

// svcSamples are the per-request samples of one stretch of the loop.
type svcSamples struct {
	reads, writes, views, closures, tabled samples
	ops                                    int64 // requests answered
	failed                                 int64 // requests answered with an error
	wall                                   time.Duration
}

func (s *svcSamples) merge(o *svcSamples) {
	s.reads = append(s.reads, o.reads...)
	s.writes = append(s.writes, o.writes...)
	s.views = append(s.views, o.views...)
	s.closures = append(s.closures, o.closures...)
	s.tabled = append(s.tabled, o.tabled...)
	s.ops += o.ops
	s.failed += o.failed
}

// byWindow is the median over the loop's one-second windows of each
// window's value: a stretch in which the host took the CPU away moves
// the windows it covers, not the median of all of them.
func (l *svcLoop) byWindow(f func(*svcSamples) float64) float64 {
	var v samples
	for i := range l.windows {
		if x := f(&l.windows[i]); !math.IsNaN(x) { // a window whose requests of this kind all failed
			v.add(x)
		}
	}
	return v.median()
}

// svcClient is the closed-loop client: its request stream is a function of
// the seed, and its acknowledged writes are recorded for the checks.
type svcClient struct {
	st       *svcState
	rng      *rand.Rand
	vt       int64
	round    int
	acked    int
	written  map[storage.OID]bool
	ancestor []storage.OID
}

func newSvcClient(st *svcState, seed int64) *svcClient {
	return &svcClient{
		st: st, rng: rand.New(rand.NewSource(seed ^ 0x5E7)), vt: int64(1) << 50,
		written: map[storage.OID]bool{}, ancestor: st.d.ancestors(st.d.sink),
	}
}

// runRound issues one round: svcReadFlights pipelined probe flights, one
// write batch, one view (rotating), one native and one tabled closure, and
// records the samples of the requests answered in w. A request the server
// answers with an error counts as failed and the round goes on; an answer
// that disagrees with the oracles ends the run.
func (c *svcClient) runRound(cl *wire.Client, w *svcSamples) error {
	st := c.st
	for f := 0; f < svcReadFlights; f++ {
		p := cl.Pipeline()
		futs := make([]*wire.MostRecentFuture, svcFlight)
		for i := range futs {
			futs[i] = p.MostRecent(st.mats[c.rng.Intn(len(st.mats))], svcProbeAttrs[c.rng.Intn(len(svcProbeAttrs))])
		}
		t0 := time.Now()
		err := p.Flush()
		d := time.Since(t0)
		if err != nil {
			w.failed += int64(svcFlight)
			continue
		}
		var bad int64
		for _, f := range futs {
			if f.Err != nil {
				bad++
			}
		}
		w.failed += bad
		w.ops += int64(svcFlight) - bad
		if bad == 0 {
			w.reads.addDur(d)
		}
	}

	specs := make([]labbase.StepSpec, svcFlight)
	targets := make([]storage.OID, svcFlight)
	for i := range specs {
		c.vt++
		targets[i] = st.tclones[c.rng.Intn(len(st.tclones))]
		specs[i] = labbase.StepSpec{Class: svcRecheck, ValidTime: c.vt, Materials: []storage.OID{targets[i]},
			Attrs: []labbase.AttrValue{{Name: "quality", Value: labbase.Float64(c.rng.Float64())}, {Name: "ok", Value: labbase.Bool(c.rng.Intn(2) == 0)}}}
	}
	t0 := time.Now()
	_, err := cl.PutSteps(specs)
	d := time.Since(t0)
	if err != nil {
		w.failed++
	} else {
		c.acked += len(specs)
		for _, m := range targets {
			c.written[m] = true
		}
		w.writes.addDur(d)
		w.ops++
	}

	view := svcViews[c.round%len(svcViews)]
	c.round++
	t0 = time.Now()
	sols, err := cl.Query(view, 0)
	d = time.Since(t0)
	if err != nil {
		w.failed++
	} else {
		if err := st.checkView(view, sols); err != nil {
			return err
		}
		w.views.addDur(d)
		w.ops++
	}

	for i, goal := range []string{
		fmt.Sprintf("derived_from(%d, A)", uint64(st.d.sink)), // native extern
		fmt.Sprintf("derived(%d, A)", uint64(st.d.sink)),      // tabled rules
	} {
		t0 := time.Now()
		sols, err := cl.Query(goal, 0)
		d := time.Since(t0)
		if err != nil {
			w.failed++
			continue
		}
		if err := checkAnswerSet(goal, answerOIDs(sols, "A"), c.ancestor); err != nil {
			return err
		}
		if i == 0 {
			w.closures.addDur(d)
		} else {
			w.tabled.addDur(d)
		}
		w.ops++
	}
	return nil
}

// checkView checks a view's answer against the one computed from direct
// reads: the count for the counting views, the set of clones for
// well_covered.
func (st *svcState) checkView(view string, sols []map[string]string) error {
	if view == "well_covered(M)" {
		return checkAnswerSet(view, answerOIDs(sols, "M"), st.covered)
	}
	want := st.views[view]
	if len(sols) != 1 || sols[0]["N"] != strconv.Itoa(want) {
		return incorrect("%s = %v, want N = %d", view, sols, want)
	}
	return nil
}

func answerOIDs(sols []map[string]string, v string) []storage.OID {
	out := make([]storage.OID, 0, len(sols))
	for _, s := range sols {
		n, err := strconv.ParseUint(s[v], 10, 64)
		if err != nil {
			out = append(out, 0)
			continue
		}
		out = append(out, storage.OID(n))
	}
	return out
}

// loop runs untimed warm-up rounds, then timed rounds for d. With a
// sampler, each second of the timed loop is one RSS window.
func (c *svcClient) loop(cl *wire.Client, d time.Duration, rss *rssSampler) (*svcLoop, error) {
	l := &svcLoop{}
	for t0 := time.Now(); time.Since(t0) < svcWarmup; {
		if err := c.runRound(cl, &svcSamples{}); err != nil {
			return l, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	w, wStart := svcSamples{}, t0
	for time.Since(t0) < d {
		if err := c.runRound(cl, &w); err != nil {
			l.merge(&w)
			return l, err
		}
		if now := time.Now(); now.Sub(wStart) >= time.Second || now.Sub(t0) >= d {
			w.wall = now.Sub(wStart)
			l.merge(&w)
			l.windows = append(l.windows, w)
			w, wStart = svcSamples{}, now
			if rss != nil {
				rss.window()
			}
		}
	}
	l.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	l.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	l.allocs = ms1.Mallocs - ms0.Mallocs
	return l, nil
}

// check verifies the served store after the loop: every acknowledged write
// landed, and most-recent answers over the wire and directly agree with
// the history scan for the written materials and a random sample.
func (c *svcClient) check(cl *wire.Client) error {
	st := c.st
	n, err := st.db.CountSteps(svcRecheck)
	if err != nil {
		return err
	}
	if int(n) != c.acked {
		return incorrect("%d %s steps stored, %d acknowledged", n, svcRecheck, c.acked)
	}
	var mats []storage.OID
	for m := range c.written {
		mats = append(mats, m)
	}
	sort.Slice(mats, func(i, j int) bool { return mats[i] < mats[j] })
	if len(mats) > 64 {
		mats = mats[:64]
	}
	for i := 0; i < 32; i++ {
		mats = append(mats, st.mats[c.rng.Intn(len(st.mats))])
	}
	if err := checkMostRecent(st.db, mats, svcProbeAttrs); err != nil {
		return err
	}
	for _, m := range mats {
		for _, attr := range []string{"quality", "ok"} {
			want, wantStep, wantFound, err := recentByScan(st.db, m, attr)
			if err != nil {
				return err
			}
			got, gotStep, gotFound, err := cl.MostRecent(m, attr)
			if err != nil {
				return err
			}
			if err := sameRecent(m, attr, got, gotStep, gotFound, want, wantStep, wantFound); err != nil {
				return err
			}
		}
	}
	return nil
}

func readRules() (string, error) {
	b, err := os.ReadFile(svcRulesFile)
	if err != nil {
		return "", fmt.Errorf("read the shipped view rules (run from the repository root): %w", err)
	}
	return string(b) + "\n" + core.ProvenanceRules(), nil
}

func runService(cfg config) (*result, error) {
	// Client and server take turns: the closed loop never has two things
	// to run at once. With a second P every request would also pay a
	// cross-core wake-up whose cost depends on where the scheduler put the
	// two goroutines, which spread ops_per_s 12.8k-16.1k over four runs of
	// one seed (15.2k-16.2k with one P).
	runtime.GOMAXPROCS(1)
	rules, err := readRules()
	if err != nil {
		return nil, err
	}
	res := newResult()
	var setup samples
	var st *svcState
	for i := 0; i < svcSetups; i++ {
		if st != nil {
			st.db.Close()
			st = nil
		}
		runtime.GC() // each set-up starts from the same, emptied heap
		t0 := time.Now()
		if st, err = serviceSetup(cfg.seed, rules, cfg.trace); err != nil {
			return res, err
		}
		setup.add(time.Since(t0).Seconds())
	}
	defer st.db.Close()
	if cfg.trace {
		return serviceTraced(cfg, st, res)
	}
	s, err := serve(st, st.db, nil)
	if err != nil {
		return res, err
	}
	c := newSvcClient(st, cfg.seed)
	rss := startRSS()
	l, err := c.loop(s.client, cfg.seconds, rss)
	peak := rss.finish()
	res.Attempted, res.Failed = l.ops+l.failed, l.failed
	if err == nil {
		err = c.check(s.client)
	}
	if serr := s.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return res, err
	}
	if len(l.reads) == 0 || len(l.writes) == 0 || len(l.views) == 0 || len(l.closures) == 0 || len(l.tabled) == 0 {
		return res, fmt.Errorf("some kind of request was never answered (%d of %d failed)", l.failed, res.Attempted)
	}
	res.set("setup_s", setup.median())
	res.set("peak_rss_mb", peak)
	res.set("ops_per_s", l.byWindow(func(w *svcSamples) float64 { return float64(w.ops) / w.wall.Seconds() }))
	res.set("read_p50_us", l.byWindow(func(w *svcSamples) float64 { return w.reads.median() }))
	if v, ok := l.reads.p99(); ok {
		res.set("read_p99_us", v)
	}
	res.set("write_p50_us", l.byWindow(func(w *svcSamples) float64 { return w.writes.median() }))
	res.set("view_p50_us", l.byWindow(func(w *svcSamples) float64 { return w.views.median() }))
	res.set("closure_p50_us", l.byWindow(func(w *svcSamples) float64 { return w.closures.median() }))
	res.set("tabled_closure_p50_us", l.byWindow(func(w *svcSamples) float64 { return w.tabled.median() }))
	return res, nil
}

// serviceTraced runs half the time against a plain server and half against
// one over the traced store and listener, then calls the deductive layer
// directly on traced snapshots.
func serviceTraced(cfg config, st *svcState, res *result) (*result, error) {
	t := newTracer()
	half := cfg.seconds / 2
	c := newSvcClient(st, cfg.seed)

	plain, err := serve(st, st.db, nil)
	if err != nil {
		return res, err
	}
	pl, err := c.loop(plain.client, half, nil)
	if serr := plain.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return res, err
	}

	traced, err := wrapStore(t, st.db)
	if err != nil {
		return res, err
	}
	st.sm.t = t // no request is in flight: the plain server has stopped
	s, err := serve(st, traced, t)
	if err != nil {
		return res, err
	}
	var tl *svcLoop
	var bytes0 int64
	err = func() error {
		// Warm up inside loop, then count only the timed part.
		for t0 := time.Now(); time.Since(t0) < svcWarmup; {
			if err := c.runRound(s.client, &svcSamples{}); err != nil {
				return err
			}
		}
		t.take()
		bytes0 = s.ln.(*tListener).bytes()
		tl = &svcLoop{}
		t0 := time.Now()
		for time.Since(t0) < half {
			if err := c.runRound(s.client, &tl.svcSamples); err != nil {
				return err
			}
		}
		tl.wall = time.Since(t0)
		return nil
	}()
	aggs := t.take()
	bytes := s.ln.(*tListener).bytes() - bytes0
	if err == nil {
		err = c.check(s.client)
	}
	if serr := s.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return res, err
	}
	res.Attempted = pl.ops + pl.failed + tl.ops + tl.failed
	res.Failed = pl.failed + tl.failed

	perCall := func(a map[string]agg, name string, self bool) float64 {
		d := a[name].total
		if self {
			d = a[name].self
		}
		return micros(d) / float64(a[name].n)
	}
	requests := aggs["wire.read"].n + aggs["wire.write"].n + aggs["wire.query"].n
	setLayerMetrics(res, aggs, float64(tl.ops))
	res.set("runtime.alloc_bytes_per_op", float64(pl.allocBytes)/float64(pl.ops))
	res.set("runtime.allocs_per_op", float64(pl.allocs)/float64(pl.ops))
	plainRate := float64(pl.ops) / pl.wall.Seconds()
	tracedRate := float64(tl.ops) / tl.wall.Seconds()
	res.set("trace.overhead_pct", 100*(plainRate/tracedRate-1))
	res.set("wire.read_self_us", perCall(aggs, "wire.read", true))
	res.set("wire.write_self_us", perCall(aggs, "wire.write", true))
	res.set("wire.bytes_per_op", float64(bytes)/float64(requests))
	res.set("labbase.most_recent_us", perCall(aggs, "labbase.MostRecent", false))
	res.set("labbase.put_steps_us", perCall(aggs, "labbase.PutSteps", false))

	// The deductive layer, called directly on traced snapshots.
	eng := lbq.New(traced)
	if err := eng.Engine().Consult(st.rules); err != nil {
		return res, err
	}
	direct := func(span, goal string, n int, want func([]datalog.Solution) error) (map[string]agg, int64, error) {
		t.take()
		var steps int64
		for i := 0; i < n; i++ {
			snap, err := traced.Snapshot()
			if err != nil {
				return nil, 0, err
			}
			qc := datalog.NewQctx(snap, true)
			qc.MaxSteps = math.MaxInt64 // a budget makes the engine count resolution steps
			o := t.push(span)
			sols, err := eng.Engine().QueryCtx(qc, goal, 0)
			t.pop(o)
			snap.Close()
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", goal, err)
			}
			steps += qc.Steps()
			if err := want(sols); err != nil {
				return nil, 0, err
			}
		}
		return t.take(), steps, nil
	}
	ancestors := st.d.ancestors(st.d.sink)
	closureWant := func(goal string) func([]datalog.Solution) error {
		return func(sols []datalog.Solution) error {
			got := make([]storage.OID, len(sols))
			for i, s := range sols {
				oid, _ := lbq.TermOID(datalog.Resolve(s["A"]))
				got[i] = oid
			}
			return checkAnswerSet(goal, got, ancestors)
		}
	}
	const reps = 60
	var viewAggs []map[string]agg
	var viewSteps int64
	for _, v := range svcViews {
		a, steps, err := direct("datalog.view", v, reps/len(svcViews), func(sols []datalog.Solution) error {
			rows := make([]map[string]string, len(sols))
			for i, sol := range sols {
				rows[i] = map[string]string{}
				for name, term := range sol {
					rows[i][name] = term.String()
				}
			}
			return st.checkView(v, rows)
		})
		if err != nil {
			return res, err
		}
		viewAggs = append(viewAggs, a)
		viewSteps += steps
	}
	va := mergeAggs(viewAggs...)
	nativeGoal := fmt.Sprintf("derived_from(%d, A)", uint64(st.d.sink))
	na, _, err := direct("lbq.closure", nativeGoal, reps, closureWant(nativeGoal))
	if err != nil {
		return res, err
	}
	tabledGoal := fmt.Sprintf("derived(%d, A)", uint64(st.d.sink))
	ta, tabledSteps, err := direct("datalog.tabled_closure", tabledGoal, reps, closureWant(tabledGoal))
	if err != nil {
		return res, err
	}
	if err := t.writeSpans(spanFile(cfg)); err != nil {
		return res, err
	}
	views := float64(va["datalog.view"].n)
	res.set("datalog.view_us", perCall(va, "datalog.view", true))
	res.set("datalog.steps_per_view", float64(viewSteps)/views)
	res.set("lbq.reads_per_view", float64(layerSums(va)["labbase"].n)/views)
	res.set("lbq.closure_us", perCall(na, "lbq.closure", true))
	res.set("lbq.reads_per_closure", float64(layerSums(na)["labbase"].n)/float64(na["lbq.closure"].n))
	res.set("datalog.tabled_closure_us", perCall(ta, "datalog.tabled_closure", true))
	res.set("datalog.steps_per_tabled_closure", float64(tabledSteps)/float64(ta["datalog.tabled_closure"].n))

	done, err := st.db.MaterialsInState(core.StCloneDone)
	if err != nil {
		return res, err
	}
	pubs, err := loadPublished(st.db, done)
	if err != nil {
		return res, err
	}
	search, calls, err := replaySearch(pubs, st.p)
	if err != nil {
		return res, err
	}
	res.set("seqio.search_s", search.Seconds())
	res.set("seqio.search_us", micros(search)/float64(calls))
	return res, nil
}
