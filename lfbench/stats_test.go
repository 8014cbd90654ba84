package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestP99NeedsATail(t *testing.T) {
	var s samples
	for i := 999; i >= 1; i-- {
		s.add(float64(i))
	}
	if _, ok := s.p99(); ok {
		t.Fatal("999 samples leave only 9 beyond the 99th percentile; p99 must be withheld")
	}
	s.add(1000)
	v, ok := s.p99()
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (%v), want 990", v, ok)
	}
	if m := s.median(); m != 500.5 {
		t.Fatalf("median %v, want 500.5", m)
	}
}

func TestUnitsMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pass     string
		declared []struct{ Name, Unit string }
		printed  []string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.pass, len(c.declared), len(c.printed))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.printed[i] || m.Unit != units[m.Name] {
				t.Errorf("%s[%d]: declared %s in %q, printed %s in %q", c.pass, i, m.Name, m.Unit, c.printed[i], units[c.printed[i]])
			}
		}
	}
}
