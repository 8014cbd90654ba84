package main

import (
	"fmt"
	"math"
	"sort"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// The oracles recompute what the program should have answered from the
// benchmark's own inputs or from raw reads, by code that shares nothing
// with the path under test. Each returns an incorrect(...) error naming the
// first disagreement.

// ---- homology hits -------------------------------------------------------

// kmers returns the sorted distinct k-mers of seq, each packed two bits a
// base. A base other than A, C, G or T breaks the run: no k-mer spans it.
func kmers(seq string, k int) []uint64 {
	var out []uint64
	mask := uint64(1)<<(2*uint(k)) - 1
	var h uint64
	run := 0
	for i := 0; i < len(seq); i++ {
		var b uint64
		switch seq[i] {
		case 'A':
			b = 0
		case 'C':
			b = 1
		case 'G':
			b = 2
		case 'T':
			b = 3
		default:
			run, h = 0, 0
			continue
		}
		h = (h<<2 | b) & mask
		if run++; run >= k {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// jaccard is |a ∩ b| / |a ∪ b| over sorted sets, 0 when they are disjoint.
func jaccard(a, b []uint64) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// published is one consensus sequence as stored, with its accession.
type published struct {
	accession string
	consensus string
	kmers     []uint64
	hits      labbase.Value // the hit list the program stored for it
}

type hit struct {
	acc   string
	score float64
}

// expectHits is the search the program should have run for entry i: every
// earlier accession scoring at least minScore, best first, ties by
// accession, at most maxHits.
func expectHits(pubs []published, i, maxHits int, minScore float64) []hit {
	var hits []hit
	for _, e := range pubs[:i] {
		if s := jaccard(pubs[i].kmers, e.kmers); s > 0 && s >= minScore {
			hits = append(hits, hit{e.accession, s})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].score != hits[b].score {
			return hits[a].score > hits[b].score
		}
		return hits[a].acc < hits[b].acc
	})
	if len(hits) > maxHits {
		hits = hits[:maxHits]
	}
	return hits
}

// checkHitList compares a stored hit list with the expected hits, exactly.
func checkHitList(acc string, stored labbase.Value, want []hit) error {
	if stored.Kind != labbase.KindList || len(stored.List) != len(want) {
		return incorrect("%s: stored hits %v, want %d hits %v", acc, stored, len(want), want)
	}
	for i, h := range stored.List {
		if h.Kind != labbase.KindList || len(h.List) != 2 ||
			h.List[0].Kind != labbase.KindString || h.List[0].Str != want[i].acc ||
			h.List[1].Kind != labbase.KindFloat || math.Float64bits(h.List[1].Float) != math.Float64bits(want[i].score) {
			return incorrect("%s: hit %d is %v, want [%q, %v]", acc, i, h, want[i].acc, want[i].score)
		}
	}
	return nil
}

// loadPublished reads every incorporated clone's accession, consensus and
// stored hits, in accession order.
func loadPublished(r labbase.Reader, clones []storage.OID) ([]published, error) {
	pubs := make([]published, 0, len(clones))
	for _, c := range clones {
		acc, err := mustRecent(r, c, "accession", labbase.KindString)
		if err != nil {
			return nil, err
		}
		cons, err := mustRecent(r, c, "consensus", labbase.KindString)
		if err != nil {
			return nil, err
		}
		hits, err := mustRecent(r, c, "hits", labbase.KindList)
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, published{accession: acc.Str, consensus: cons.Str, kmers: kmers(cons.Str, 8), hits: hits})
	}
	sort.Slice(pubs, func(i, j int) bool { return pubs[i].accession < pubs[j].accession })
	return pubs, nil
}

func mustRecent(r labbase.Reader, m storage.OID, attr string, kind labbase.Kind) (labbase.Value, error) {
	v, _, found, err := r.MostRecent(m, attr)
	if err != nil {
		return v, fmt.Errorf("most_recent(%v, %s): %w", m, attr, err)
	}
	if !found || v.Kind != kind {
		return v, incorrect("most_recent(%v, %s) = %v (found %v), want a %v", m, attr, v, found, kind)
	}
	return v, nil
}

// checkHitSample verifies the stored hit lists of the sampled entries.
func checkHitSample(pubs []published, sample []int, maxHits int, minScore float64) error {
	for _, i := range sample {
		if err := checkHitList(pubs[i].accession, pubs[i].hits, expectHits(pubs, i, maxHits, minScore)); err != nil {
			return err
		}
	}
	return nil
}

// ---- most recent -----------------------------------------------------------

// recentByScan answers most_recent from the raw history: among the steps
// that assign attr, the one with the greatest valid time, the later
// recorded one on a tie (History lists steps in recording order).
func recentByScan(r labbase.Reader, m storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	hist, err := r.History(m)
	if err != nil {
		return labbase.Value{}, 0, false, err
	}
	var (
		best    labbase.Value
		bestOID storage.OID
		bestVT  int64
		found   bool
	)
	for _, h := range hist {
		st, err := r.GetStep(h.Step)
		if err != nil {
			return labbase.Value{}, 0, false, err
		}
		for _, a := range st.Attrs {
			if a.Name == attr && (!found || st.ValidTime >= bestVT) {
				best, bestOID, bestVT, found = a.Value, st.OID, st.ValidTime, true
			}
		}
	}
	return best, bestOID, found, nil
}

// checkMostRecent compares MostRecent with the history scan for each
// material and attribute.
func checkMostRecent(r labbase.Reader, mats []storage.OID, attrs []string) error {
	for _, m := range mats {
		for _, attr := range attrs {
			want, wantStep, wantFound, err := recentByScan(r, m, attr)
			if err != nil {
				return err
			}
			got, gotStep, gotFound, err := r.MostRecent(m, attr)
			if err != nil {
				return fmt.Errorf("most_recent(%v, %s): %w", m, attr, err)
			}
			if err := sameRecent(m, attr, got, gotStep, gotFound, want, wantStep, wantFound); err != nil {
				return err
			}
		}
	}
	return nil
}

func sameRecent(m storage.OID, attr string, got labbase.Value, gotStep storage.OID, gotFound bool,
	want labbase.Value, wantStep storage.OID, wantFound bool) error {
	if gotFound != wantFound || (wantFound && (gotStep != wantStep || !got.Equal(want))) {
		return incorrect("most_recent(%v, %s) = %v from %v (found %v); history scan gives %v from %v (found %v)",
			m, attr, got, gotStep, gotFound, want, wantStep, wantFound)
	}
	return nil
}

// ---- lineage closure -------------------------------------------------------

// dag is a derivation DAG as the benchmark generated it: parents[m] are
// the inputs of the step that produced m.
type dag struct {
	parents map[storage.OID][]storage.OID
	nodes   []storage.OID
	sink    storage.OID
}

// ancestors is the strict ancestor set of m, sorted.
func (d *dag) ancestors(m storage.OID) []storage.OID {
	seen := map[storage.OID]bool{}
	queue := append([]storage.OID(nil), d.parents[m]...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		queue = append(queue, d.parents[p]...)
	}
	out := make([]storage.OID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAnswerSet compares a query's answers (any order) with the oracle's.
func checkAnswerSet(what string, got, want []storage.OID) error {
	g := append([]storage.OID(nil), got...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	if len(g) != len(want) {
		return incorrect("%s: %d answers, want %d", what, len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return incorrect("%s: answer %d is %v, want %v", what, i, g[i], want[i])
		}
	}
	return nil
}

// ---- ingest ledger ---------------------------------------------------------

// ledger is ingest's own record of every acknowledged step.
type ledger struct {
	count map[storage.OID]int
	best  map[storage.OID]ledgerEntry
}

type ledgerEntry struct {
	vt  int64
	seq int64
}

func newLedger() *ledger {
	return &ledger{count: map[storage.OID]int{}, best: map[storage.OID]ledgerEntry{}}
}

// ack records one acknowledged step; steps are acked in recording order,
// so on a valid-time tie the later one is the most recent.
func (l *ledger) ack(m storage.OID, vt, seq int64) {
	l.count[m]++
	if b, ok := l.best[m]; !ok || vt >= b.vt {
		l.best[m] = ledgerEntry{vt, seq}
	}
}

// verify checks each material's history length and most recent "seq".
func (l *ledger) verify(r labbase.Reader, mats []storage.OID) error {
	for _, m := range mats {
		hist, err := r.History(m)
		if err != nil {
			return fmt.Errorf("history(%v): %w", m, err)
		}
		if len(hist) != l.count[m] {
			return incorrect("material %v has %d steps after restart, %d were acknowledged", m, len(hist), l.count[m])
		}
		v, _, found, err := r.MostRecent(m, "seq")
		if err != nil {
			return fmt.Errorf("most_recent(%v, seq): %w", m, err)
		}
		b, want := l.best[m]
		if found != want || (want && (v.Kind != labbase.KindInt || v.Int != b.seq)) {
			return incorrect("material %v: most recent seq %v (found %v), want %d (found %v)", m, v, found, b.seq, want)
		}
	}
	return nil
}
