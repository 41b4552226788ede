package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileSampleGuard(t *testing.T) {
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := needSamples(q); got != want {
			t.Errorf("needSamples(%g) = %d, want %d", q, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, err := Percentile(xs, 0.5); err != nil || v != 50.5 {
		t.Errorf("p50 = %v, %v; want 50.5", v, err)
	}
	if v, err := Percentile(xs, 0.9); err != nil || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 = %v, %v; want 90.1", v, err)
	}
	if _, err := Percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples has only one sample beyond it; want an error")
	}
	if _, err := Percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has fewer than 10 beyond it; want an error")
	}
	if xs[0] != 100 {
		t.Error("Percentile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // only [90,100] lies inside the parent
		{ID: 5, Parent: 2, Start: 12, End: 18},  // a grandchild does not touch the root
	}
	self := SelfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.Request()
	root := tr.Begin("root")
	tr.Do("child", func() {
		// Server-side spans never become parents: two open at once
		// are siblings under the client's span.
		a, b := tr.BeginChild("a"), tr.BeginChild("b")
		tr.End(a)
		tr.End(b)
	})
	tr.End(root)
	tr.Request()
	tr.Do("next", func() {})
	want := map[string]struct{ parent, req int }{
		"root": {0, 1}, "child": {1, 1}, "a": {2, 1}, "b": {2, 1}, "next": {0, 2},
	}
	for _, s := range tr.Spans() {
		if w := want[s.Name]; s.Parent != w.parent || s.Req != w.req || s.End < s.Start {
			t.Errorf("span %q: parent %d req %d, want parent %d req %d", s.Name, s.Parent, s.Req, w.parent, w.req)
		}
	}
}

// FloydWarshall is the O(n³) all-pairs reference Dijkstra is held
// against.
func FloydWarshall(g *Graph) [][]float64 {
	d := make([][]float64, g.N)
	for i := range d {
		d[i] = make([]float64, g.N)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range g.Edges {
		if e.W < d[e.U][e.V] {
			d[e.U][e.V], d[e.V][e.U] = e.W, e.W
		}
	}
	for k := 0; k < g.N; k++ {
		for i := 0; i < g.N; i++ {
			for j := 0; j < g.N; j++ {
				if x := d[i][k] + d[k][j]; x < d[i][j] {
					d[i][j] = x
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, g := range []*Graph{RGG(60, seed), Grid(7, seed), Tree(50, seed)} {
			fw := FloydWarshall(g)
			for s := 0; s < g.N; s++ {
				d := Dijkstra(g, s)
				for v := range d {
					if d[v] != fw[s][v] {
						t.Fatalf("seed %d n=%d: dist(%d,%d) = %v, Floyd–Warshall %v", seed, g.N, s, v, d[v], fw[s][v])
					}
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(int64) *Graph{
		"rgg":  func(s int64) *Graph { return RGG(300, s) },
		"grid": func(s int64) *Graph { return Grid(12, s) },
		"tree": func(s int64) *Graph { return Tree(200, s) },
	}
	for name, gen := range gens {
		a, b, c := gen(subSeed(7, 0)), gen(subSeed(7, 0)), gen(subSeed(7, 1))
		if !bytes.Equal(a.Body(), b.Body()) {
			t.Errorf("%s: same seed, different bodies", name)
		}
		if bytes.Equal(a.Body(), c.Body()) {
			t.Errorf("%s: different seeds, same body", name)
		}
		for v, comp := range components(a) {
			if comp != 0 {
				t.Errorf("%s: vertex %d not connected to vertex 0", name, v)
				break
			}
		}
	}
	if subSeed(1, 0) == subSeed(2, 0) || subSeed(1, 0) == subSeed(1, 1) {
		t.Error("subSeed collides across run seeds or stream positions")
	}
}

func TestCheckAnswer(t *testing.T) {
	g := newGraph(4) // path 0-1-2-3 plus a heavy shortcut 0-3
	g.addEdge(0, 1, 1)
	g.addEdge(1, 2, 2)
	g.addEdge(2, 3, 3)
	g.addEdge(0, 3, 10)
	ref := newReference(g)
	cases := []struct {
		name string
		d    float64
		path []int
		ok   bool
	}{
		{"correct", 6, []int{0, 1, 2, 3}, true},
		{"wrong distance", 7, []int{0, 1, 2, 3}, false},
		{"non-edge hop", 6, []int{0, 2, 3}, false},
		{"real edges, wrong weight", 6, []int{0, 3}, false},
		{"wrong endpoint", 6, []int{0, 1, 2}, false},
		{"no path", 6, nil, false},
	}
	for _, c := range cases {
		if err := ref.checkAnswer(0, 3, c.d, c.path, true); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := ref.checkAnswer(0, 3, 6, nil, false); err != nil {
		t.Errorf("distance-only answer rejected: %v", err)
	}
}

func TestEditsChangeWeights(t *testing.T) {
	g := Grid(10, 3)
	rng := newWorkloadRNG(3)
	for i := 0; i < 50; i++ {
		for _, edits := range [][]Edge{raiseEdit(g, rng), lowerEdit(g, rng), bulkEdit(g, rng)} {
			for _, e := range edits {
				old, ok := g.Weight(e.U, e.V)
				if !ok || old == e.W || e.W < 1 {
					t.Fatalf("edit %+v: edge exists=%v old weight %v", e, ok, old)
				}
			}
		}
	}
}

// The metric lists in the code and BENCHMARK.json must agree.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit, Better string }
		want []MetricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", c.name, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			w := c.want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d]: %+v vs %s/%s/%s", c.name, i, m, w.Name, w.Unit, w.Better)
			}
		}
	}
}
