package main

import (
	"fmt"
	"math/rand"
)

// A workload is one traffic mix, driven as a closed loop from a single
// client over one connection. A fresh value is made for every set-up,
// so each set-up of a run sends the same requests.
type workload interface {
	topology() Topology
	// setup loads the resident set and sends the warm-up requests.
	setup(r *Run) error
	// step sends the next round of the timed loop.
	step(r *Run) error
	// classes names the primary and secondary timed request classes.
	classes() (primary, secondary string)
	// wordsAfter is the number of steps after which /statsz is read
	// for words_per_solve; a fixed count makes the figure exact per seed.
	wordsAfter() int
}

var workloadNames = []string{"ingest", "query", "churn", "fleet"}

// newWorkloadRNG draws a workload's pairs and edits.
func newWorkloadRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(subSeed(seed, -1))) }

func newWorkload(name string, seed int64) (workload, error) {
	rng := newWorkloadRNG(seed)
	switch name {
	case "ingest":
		return &ingest{seed: seed, rng: rng}, nil
	case "query":
		return &queryMix{seed: seed, rng: rng}, nil
	case "churn":
		return &churn{seed: seed, rng: rng}, nil
	case "fleet":
		return &fleetMix{seed: seed, rng: rng}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sparseFlags runs the paper's solver; apspd's default -p 0 would
// silently serve sequential SuperFW instead.
var sparseFlags = []string{"-algorithm", "sparse2d", "-p", "49"}

func serveFlags(extra ...string) []string {
	return append(append([]string(nil), sparseFlags...), extra...)
}

// samplePairs draws k sources and per source t targets uniformly; few
// distinct sources keep the client's Dijkstra reference cheap.
func samplePairs(rng *rand.Rand, n, k, t int) [][2]int {
	pairs := make([][2]int, 0, k*t)
	for i := 0; i < k; i++ {
		s := rng.Intn(n)
		for j := 0; j < t; j++ {
			pairs = append(pairs, [2]int{s, rng.Intn(n)})
		}
	}
	return pairs
}

// raiseEdit raises one random edge's weight by 1 to 100.
func raiseEdit(g *Graph, rng *rand.Rand) []Edge {
	e := g.Edges[rng.Intn(len(g.Edges))]
	return []Edge{{e.U, e.V, e.W + weight(rng)}}
}

// lowerEdit lowers one random edge of weight above 1 to a smaller
// positive integer weight.
func lowerEdit(g *Graph, rng *rand.Rand) []Edge {
	for {
		e := g.Edges[rng.Intn(len(g.Edges))]
		if e.W > 1 {
			return []Edge{{e.U, e.V, float64(1 + rng.Intn(int(e.W)-1))}}
		}
	}
}

// bulkEdit changes a tenth of the edges, each to a different weight.
func bulkEdit(g *Graph, rng *rand.Rand) []Edge {
	idx := rng.Perm(len(g.Edges))[:len(g.Edges)/10]
	out := make([]Edge, len(idx))
	for i, k := range idx {
		e := g.Edges[k]
		w := e.W
		for w == e.W {
			w = weight(rng)
		}
		out[i] = Edge{e.U, e.V, w}
	}
	return out
}

// ingest: a stream of distinct road-like graphs, each loaded once and
// checked with one path query. Every load runs the whole cold solve
// path and the plan cache never hits; the bounded budget makes memory
// level off.
type ingest struct {
	seed int64
	rng  *rand.Rand
	next int
}

const ingestN = 576

func (w *ingest) topology() Topology {
	return Topology{Backend: serveFlags("-budget-mb", "32"), Backends: 1}
}
func (w *ingest) classes() (string, string) { return "load", "verify" }
func (w *ingest) wordsAfter() int           { return 24 }

func (w *ingest) setup(r *Run) error {
	for i := 0; i < 2; i++ {
		if err := w.round(r, "", ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingest) step(r *Run) error { return w.round(r, "load", "verify") }

func (w *ingest) round(r *Run, loadClass, verifyClass string) error {
	g := RGG(ingestN, subSeed(w.seed, w.next))
	w.next++
	fp, err := r.load(loadClass, g)
	if err != nil {
		return err
	}
	return r.query(verifyClass, fp, samplePairs(w.rng, g.N, 8, 128), true, newReference(g))
}

// queryMix: a few meshes loaded at set-up, all inside the hot budget,
// then distance batches alternating with path batches, Zipf-skewed over
// graphs and pairs. No solve runs after set-up.
type queryMix struct {
	seed    int64
	rng     *rand.Rand
	graphs  []*Graph
	fps     []string
	refs    []*Reference
	sources [][]int // per graph, the Zipf-ranked source pool
	gz, sz  *Zipf
	tz      []*Zipf
	i       int
}

func (w *queryMix) topology() Topology {
	return Topology{Backend: serveFlags("-budget-mb", "256"), Backends: 1}
}
func (w *queryMix) classes() (string, string) { return "query", "path" }
func (w *queryMix) wordsAfter() int           { return 0 }

func (w *queryMix) setup(r *Run) error {
	for i := 0; i < 3; i++ {
		w.graphs = append(w.graphs, Grid(32, subSeed(w.seed, i)))
	}
	w.gz = newZipf(len(w.graphs), 1, w.rng)
	w.sz = newZipf(32, 1, w.rng)
	for _, g := range w.graphs {
		fp, err := r.load("", g)
		if err != nil {
			return err
		}
		w.fps = append(w.fps, fp)
		w.refs = append(w.refs, newReference(g))
		w.sources = append(w.sources, w.rng.Perm(g.N)[:32])
		w.tz = append(w.tz, newZipf(g.N, 0.8, w.rng))
	}
	for i := 0; i < 4; i++ {
		if err := w.send(r, "", ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *queryMix) step(r *Run) error { return w.send(r, "query", "path") }

func (w *queryMix) send(r *Run, distClass, pathClass string) error {
	gi := w.gz.draw(w.rng)
	paths := w.i%2 == 1
	w.i++
	k, class := 2048, distClass
	if paths {
		k, class = 256, pathClass
	}
	pairs := make([][2]int, k)
	for j := range pairs {
		pairs[j] = [2]int{w.sources[gi][w.sz.draw(w.rng)], w.tz[gi].draw(w.rng)}
	}
	return r.query(class, w.fps[gi], pairs, paths, w.refs[gi])
}

// churn: twice as many graphs as the hot budget holds, with the
// compressed tier on. Visits cycle over the graphs, so each visit's
// first query promotes its graph (and demotes another): a quarter of
// the queries promote, which puts the query p90 inside the promotion
// mode and the p50 inside the hot mode. Reweights raise one edge and
// take the repair path; the last reweight of every fifth visit edits a
// tenth of the edges instead and falls back to a warm re-solve.
type churn struct {
	seed   int64
	rng    *rand.Rand
	graphs []*Graph
	fps    []string
	refs   []*Reference
	visit  int
}

const churnGraphs = 6

func (w *churn) topology() Topology {
	// Each 24×24 oracle retains n²·12 B ≈ 3.8 MiB: 12 MiB holds three.
	return Topology{Backend: serveFlags("-budget-mb", "12", "-compressed-budget-mb", "64"), Backends: 1}
}
func (w *churn) classes() (string, string) { return "reweight", "query" }
func (w *churn) wordsAfter() int           { return 10 }

func (w *churn) setup(r *Run) error {
	for i := 0; i < churnGraphs; i++ {
		g := Grid(24, subSeed(w.seed, i))
		fp, err := r.load("", g)
		if err != nil {
			return err
		}
		w.graphs = append(w.graphs, g)
		w.fps = append(w.fps, fp)
		w.refs = append(w.refs, newReference(g))
	}
	for i := 0; i < churnGraphs; i++ {
		if err := w.round(r, "", ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *churn) step(r *Run) error { return w.round(r, "reweight", "query") }

func (w *churn) round(r *Run, rwClass, qClass string) error {
	gi := w.visit % churnGraphs
	bulk := w.visit%5 == 4
	w.visit++
	g := w.graphs[gi]
	for q := 0; q < 4; q++ {
		if err := r.query(qClass, w.fps[gi], samplePairs(w.rng, g.N, 8, 128), false, w.refs[gi]); err != nil {
			return err
		}
		for k := 0; k < 2 && q < 3; k++ {
			edits := raiseEdit(g, w.rng)
			if bulk && q == 2 && k == 1 {
				edits = bulkEdit(g, w.rng)
			}
			fp, err := r.reweight(rwClass, w.fps[gi], g, edits)
			if err != nil {
				return err
			}
			w.fps[gi], w.refs[gi] = fp, newReference(g)
		}
	}
	return nil
}

// fleetMix: the router in front of two replicas (R=2), all graphs hot:
// Zipf pairs so the router's hot-pair cache serves repeats, and
// single-edge decreases (the repair's sweep path, where churn takes the
// increase path) that fan out to both replicas and invalidate the cache.
type fleetMix struct {
	seed   int64
	rng    *rand.Rand
	graphs []*Graph
	fps    []string
	refs   []*Reference
	pz     *Zipf
	i      int
}

const fleetGraphs = 4

func (w *fleetMix) topology() Topology {
	return Topology{Backend: serveFlags("-budget-mb", "64"), Backends: 2, Router: true}
}
func (w *fleetMix) classes() (string, string) { return "reweight", "query" }
func (w *fleetMix) wordsAfter() int           { return 0 }

func (w *fleetMix) setup(r *Run) error {
	for i := 0; i < fleetGraphs; i++ {
		g := Grid(24, subSeed(w.seed, i))
		fp, err := r.load("", g)
		if err != nil {
			return err
		}
		w.graphs = append(w.graphs, g)
		w.fps = append(w.fps, fp)
		w.refs = append(w.refs, newReference(g))
	}
	w.pz = newZipf(w.graphs[0].N, 1.1, w.rng)
	for i := 0; i < 2*fleetGraphs; i++ {
		if err := w.round(r, "", ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetMix) step(r *Run) error { return w.round(r, "reweight", "query") }

func (w *fleetMix) round(r *Run, rwClass, qClass string) error {
	gi := w.i % fleetGraphs
	w.i++
	for k := 0; k < 3; k++ {
		pairs := make([][2]int, 2048)
		for j := range pairs {
			pairs[j] = [2]int{w.pz.draw(w.rng), w.pz.draw(w.rng)}
		}
		if err := r.query(qClass, w.fps[gi], pairs, false, w.refs[gi]); err != nil {
			return err
		}
	}
	fp, err := r.reweight(rwClass, w.fps[gi], w.graphs[gi], lowerEdit(w.graphs[gi], w.rng))
	if err != nil {
		return err
	}
	w.fps[gi], w.refs[gi] = fp, newReference(w.graphs[gi])
	return nil
}
