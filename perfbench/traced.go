package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"time"

	"sparseapsp"
	"sparseapsp/internal/apsp"
	"sparseapsp/internal/comm"
	"sparseapsp/internal/fleet"
	"sparseapsp/internal/graph"
	"sparseapsp/internal/oracle"
	"sparseapsp/internal/semiring"
	"sparseapsp/internal/server"
)

// The traced run replays a workload's generated inputs in-process
// through each layer's public function, with a span around every call,
// and reports the per-layer metrics. Its loopback requests go to
// in-process servers whose handlers are spanned too, so the layer sums
// of each request class can be set beside its end-to-end latency.
// End-to-end metrics never come from this run.

// apspd's solver as the benchmark starts it: -algorithm sparse2d -p 49
// with the default -seed 42, packed wire and mapped R4.
const (
	solveP    = 49
	solveSeed = 42
)

// layerInputs is the part of a workload the traced run replays: its
// graphs, its query batch shapes and its edits.
type layerInputs struct {
	graphs     []*Graph
	dist, path func(rng *rand.Rand, g *Graph) [][2]int
	edit       func(g *Graph, rng *rand.Rand) []Edge
	bulk       bool // the workload also sends tenth-of-the-edges edits
}

func inputsFor(name string, seed int64) layerInputs {
	pairs := func(k, t int) func(*rand.Rand, *Graph) [][2]int {
		return func(rng *rand.Rand, g *Graph) [][2]int { return samplePairs(rng, g.N, k, t) }
	}
	in := layerInputs{dist: pairs(8, 128), path: pairs(8, 128), edit: raiseEdit}
	switch name {
	case "ingest":
		for i := 0; i < 4; i++ {
			in.graphs = append(in.graphs, RGG(ingestN, subSeed(seed, i)))
		}
	case "query":
		for i := 0; i < 3; i++ {
			in.graphs = append(in.graphs, Grid(32, subSeed(seed, i)))
		}
		in.dist, in.path = pairs(32, 64), pairs(8, 32)
	case "churn":
		for i := 0; i < churnGraphs; i++ {
			in.graphs = append(in.graphs, Grid(24, subSeed(seed, i)))
		}
		in.bulk = true
	case "fleet":
		for i := 0; i < fleetGraphs; i++ {
			in.graphs = append(in.graphs, Grid(24, subSeed(seed, i)))
		}
		in.edit = lowerEdit
	}
	return in
}

// graphRequests are the requests the traced run sends for one graph,
// both in-process and over loopback: a distance batch, a path batch,
// and a chain of edits (each made on the graph the previous one left).
type graphRequests struct {
	dist, path [][2]int
	edits      [][]Edge
}

// requests draws four of the workload's edits, plus a bulk edit where
// the workload sends them.
func (in layerInputs) requests(g *Graph, rng *rand.Rand) graphRequests {
	r := graphRequests{dist: in.dist(rng, g), path: in.path(rng, g)}
	cur := g.Clone()
	for k := 0; k < 5; k++ {
		edits := in.edit(cur, rng)
		if k == 4 {
			if !in.bulk {
				break
			}
			edits = bulkEdit(cur, rng)
		}
		applyEdits(cur, edits)
		r.edits = append(r.edits, edits)
	}
	return r
}

// layerStats collects per-graph observations; metrics are their medians.
type layerStats map[string][]float64

func (s layerStats) add(name string, v float64) { s[name] = append(s[name], v) }

func (s layerStats) median(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return Median(s[name])
}

func traced(name string, seed int64, dur time.Duration, outDir string) (Result, map[string]interface{}, error) {
	wl, err := newWorkload(name, seed)
	if err != nil {
		return Result{}, nil, err
	}
	tr := newTracer()
	st := layerStats{}
	in := inputsFor(name, seed)
	rng := rand.New(rand.NewSource(subSeed(seed, -2)))
	chk := &Run{samples: map[string][]float64{}}

	// Layer pipeline: one cold solve, queries, tier round trip and
	// repairs per input graph, each followed by the same requests over
	// loopback so their latency can be set beside the layer sums. Every
	// graph is replayed until each class has a few samples.
	budget, comp := flagMiB(wl.topology().Backend, "-budget-mb"), flagMiB(wl.topology().Backend, "-compressed-budget-mb")
	lb := &Run{samples: map[string][]float64{}, tr: tr}
	reqs := make([]graphRequests, len(in.graphs))
	for i, g := range in.graphs {
		reqs[i] = in.requests(g, rng)
	}
	for round := 0; round*len(in.graphs) < 6; round++ {
		for i, g := range in.graphs {
			pr, err := solveTraced(tr, st, g, chk)
			if err != nil {
				return Result{}, nil, err
			}
			queriesTraced(tr, st, g, pr, reqs[i].dist, reqs[i].path, chk)
			if err := tierTraced(tr, st, g, pr); err != nil {
				return Result{}, nil, err
			}
			if err := repairsTraced(tr, st, g, pr, reqs[i].edits, rng, chk); err != nil {
				return Result{}, nil, err
			}
			if err := loopbackTraced(tr, lb, g, reqs[i], budget, comp); err != nil {
				return Result{}, nil, err
			}
		}
	}
	chk.absorb(lb)
	for _, class := range []string{"load", "query", "path", "reweight"} {
		e2e := Median(lb.samples[class])
		st.add("trace."+class+"_e2e_ms", e2e)
		st.add("trace."+class+"_remainder_ms", e2e-st.median("trace."+class+"_layers_ms"))
	}
	self := SelfTimes(tr.Spans())
	for _, s := range tr.Spans() {
		switch s.Name {
		case "server.handler/query":
			st.add("server.query_handler_ms", ms(s.Dur()))
		case "client/query":
			// The client span's self time is the request minus the
			// handler: loopback, HTTP and the client's own decoding.
			st.add("server.loopback_ms", float64(self[s.ID])/1e6)
		}
	}

	// The workload's own request sequence, in-process, for the
	// registry and cache counters.
	if err := replayTraced(tr, st, name, seed, dur, chk); err != nil {
		return Result{}, nil, err
	}
	if err := fleetTraced(tr, st, in, rng, chk); err != nil {
		return Result{}, nil, err
	}

	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", name, seed))
	if err := tr.write(spanFile); err != nil {
		return Result{}, nil, err
	}
	m := map[string]Metric{}
	for _, l := range perLayer {
		m[l.Name] = Metric{st.median(l.Name), l.Unit}
	}
	targets := map[string]string{}
	for _, l := range perLayer {
		targets[l.Name] = l.Moves
	}
	report := map[string]interface{}{
		"span_file":     spanFile,
		"spans":         len(tr.Spans()),
		"wrong_answers": chk.wrong,
		"moves":         targets,
	}
	return Result{Correct: chk.wrongs == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, report, nil
}

// flagMiB reads a "-name <MiB>" flag from an apspd command line, in bytes.
func flagMiB(args []string, name string) int64 {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == name {
			v, _ := strconv.ParseInt(args[i+1], 10, 64)
			return v << 20
		}
	}
	return 0
}

// check verifies in-process answers, index-aligned with pairs, against
// the Dijkstra reference, counting each pair as one attempt. paths is
// nil for distance-only answers.
func (r *Run) check(g *Graph, pairs [][2]int, dists []float64, paths [][]int) {
	ref := newReference(g)
	for i, p := range pairs {
		r.attempted++
		d := dists[i]
		if math.IsInf(d, 1) {
			d = -1 // the wire encoding of unreachable
		}
		var path []int
		if paths != nil {
			path = paths[i]
		}
		if err := ref.checkAnswer(p[0], p[1], d, path, paths != nil); err != nil {
			r.markWrong(err)
			return
		}
	}
}

// answersOf reads a solved result's answers to pairs.
func answersOf(pr *apsp.PathResult, pairs [][2]int) ([]float64, [][]int) {
	n := pr.N()
	dists, paths := make([]float64, len(pairs)), make([][]int, len(pairs))
	for i, p := range pairs {
		dists[i], paths[i] = pr.Dist.V[p[0]*n+p[1]], pr.Path(p[0], p[1])
	}
	return dists, paths
}

func solveTraced(tr *Tracer, st layerStats, g *Graph, chk *Run) (*apsp.PathResult, error) {
	var (
		gg    *graph.Graph
		ly    *apsp.Layout
		pl    *apsp.Plan
		nodes int
		res   *apsp.DistResult
		pr    *apsp.PathResult
		err   error
	)
	body := g.Body()
	tr.Request()
	root := tr.Begin("request.load")
	steps := []struct {
		name string
		f    func()
	}{
		{"server.parse", func() { gg, err = server.ParseGraphBody(body) }},
		{"partition.layout", func() {
			var h int
			if h, err = apsp.HeightForP(solveP); err == nil {
				ly, err = apsp.NewLayout(gg, h, solveSeed)
			}
		}},
		{"apsp.plan", func() { pl, err = apsp.BuildPlan(ly, solveP, apsp.WirePacked, apsp.R4Mapped) }},
		{"apsp.lower", func() { nodes = pl.DataflowNodes(apsp.FuseOn) }},
		{"apsp.exec", func() { res, err = pl.ExecuteOpts(ly, apsp.ExecOpts{}) }},
		{"apsp.succ", func() { pr, err = apsp.SuccessorsFromDist(gg, res.Dist) }},
	}
	for _, s := range steps {
		d := tr.Do(s.name, s.f)
		if err != nil {
			tr.End(root)
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		st.add(s.name+"_ms", ms(d))
	}
	st.add("trace.load_layers_ms", ms(tr.End(root)))

	n := float64(g.N)
	rep := res.Report
	st.add("partition.sep_size", float64(ly.ND.SeparatorSize()))
	st.add("apsp.plan_ops", float64(pl.OpCount()))
	st.add("apsp.sched_nodes", float64(nodes))
	st.add("comm.crit_words", float64(rep.Critical.Bandwidth))
	st.add("comm.crit_msgs", float64(rep.Critical.Latency))
	st.add("comm.total_words", float64(rep.TotalWords))
	st.add("comm.max_mem_words", float64(rep.MaxMemory))
	for c := comm.SendClass(1); int(c) < comm.NumSendClasses; c++ {
		st.add("comm.words."+c.String(), float64(rep.WordsByClass[c]))
	}
	flops := int64(0)
	for _, f := range rep.LocalFlops {
		flops += f
	}
	st.add("semiring.flops", float64(flops))
	st.add("semiring.flops_per_word", float64(flops)/float64(rep.TotalWords))
	st.add("apsp.succ_bytes_per_pair", float64(pr.MemoryBytes()-int64(len(res.Dist.V))*8)/(n*n))

	// The solve is checked like an answer: sampled distances and paths.
	pairs := samplePairs(rand.New(rand.NewSource(int64(g.N))), g.N, 4, 32)
	dists, paths := answersOf(pr, pairs)
	chk.check(g, pairs, dists, paths)
	return pr, nil
}

func queriesTraced(tr *Tracer, st layerStats, g *Graph, pr *apsp.PathResult, dist, path [][2]int, chk *Run) {
	o := oracle.FromResult(pr, nil)
	var (
		ds    []float64
		paths [][]int
		err   error
	)
	tr.Request()
	d := tr.Do("request.query", func() { tr.Do("oracle.batch_dist", func() { ds, err = o.BatchDist(dist) }) })
	if err != nil {
		chk.markWrong(err)
		return
	}
	st.add("oracle.batch_dist_us_per_pair", 1000*ms(d)/float64(len(dist)))
	st.add("trace.query_layers_ms", ms(d))
	chk.check(g, dist, ds, nil)

	tr.Request()
	root := tr.Begin("request.path")
	tr.Do("oracle.batch_dist", func() { ds, err = o.BatchDist(path) })
	pd := tr.Do("oracle.batch_path", func() {
		if err == nil {
			paths, err = o.BatchPath(path)
		}
	})
	d = tr.End(root)
	if err != nil {
		chk.markWrong(err)
		return
	}
	st.add("oracle.batch_path_us_per_pair", 1000*ms(pd)/float64(len(path)))
	st.add("trace.path_layers_ms", ms(d))
	chk.check(g, path, ds, paths)
}

// tierTraced runs the compressed tier's round trip: demotion encodes
// the distances, promotion decodes them and rebuilds the successors.
func tierTraced(tr *Tracer, st layerStats, g *Graph, pr *apsp.PathResult) error {
	var blob []byte
	tr.Request()
	st.add("oracle.compress_ms", ms(tr.Do("oracle.compress", func() { blob = oracle.CompressDist(pr.Dist) })))
	st.add("oracle.compressed_bytes_per_pair", float64(len(blob))/float64(g.N*g.N))
	tr.Request()
	root := tr.Begin("oracle.promote")
	var err error
	var back *apsp.PathResult
	var d *semiring.Matrix
	dd := tr.Do("oracle.decompress", func() { d, err = oracle.DecompressDist(blob) })
	if err == nil {
		gg, _ := server.ParseGraphBody(g.Body())
		tr.Do("apsp.succ", func() { back, err = apsp.SuccessorsFromDist(gg, d) })
	}
	st.add("oracle.promote_ms", ms(tr.End(root)))
	if err != nil {
		return fmt.Errorf("tier round trip: %w", err)
	}
	st.add("oracle.decompress_ms", ms(dd))
	if back.MemoryBytes() != pr.MemoryBytes() {
		return errors.New("tier round trip changed the oracle's size")
	}
	return nil
}

func toEdits(edits []Edge) []apsp.EdgeEdit {
	out := make([]apsp.EdgeEdit, len(edits))
	for i, e := range edits {
		out[i] = apsp.EdgeEdit{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// repairsTraced chains the edits through Plan.Repair and checks the
// last result against the edited graph.
func repairsTraced(tr *Tracer, st layerStats, g *Graph, pr *apsp.PathResult, chain [][]Edge, rng *rand.Rand, chk *Run) error {
	gg, err := server.ParseGraphBody(g.Body())
	if err != nil {
		return err
	}
	h, _ := apsp.HeightForP(solveP)
	ly, err := apsp.NewLayout(gg, h, solveSeed)
	if err != nil {
		return err
	}
	pl, err := apsp.BuildPlan(ly, solveP, apsp.WirePacked, apsp.R4Mapped)
	if err != nil {
		return err
	}
	cur := g.Clone()
	attempts, fellBack := 0, 0
	for k, edits := range chain {
		var (
			next *apsp.PathResult
			g2   *graph.Graph
			rs   apsp.RepairStats
		)
		tr.Request()
		d := tr.Do("request.reweight", func() {
			tr.Do("apsp.repair", func() { next, g2, rs, err = pl.Repair(gg, pr, toEdits(edits), apsp.RepairOptions{}) })
		})
		if err != nil {
			return fmt.Errorf("repair: %w", err)
		}
		if k == 0 {
			// The loopback replay sends this same first edit.
			st.add("trace.reweight_layers_ms", ms(d))
		}
		applyEdits(cur, edits)
		attempts++
		if rs.FellBack {
			fellBack++
		} else {
			st.add("apsp.repair_ms", ms(d))
			st.add("apsp.repair_reset_pairs", float64(rs.ResetPairs))
		}
		pr, gg = next, g2
	}
	st.add("apsp.repair_fallback_frac", float64(fellBack)/float64(attempts))
	pairs := samplePairs(rng, cur.N, 4, 32)
	dists, paths := answersOf(pr, pairs)
	chk.check(cur, pairs, dists, paths)
	return nil
}

// spanned wraps a handler so each request it serves is a span under
// the client span that is waiting on it.
func spanned(tr *Tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := tr.BeginChild(name + r.URL.Path)
		h.ServeHTTP(w, r)
		tr.End(s)
	})
}

func newRegistry(budget, comp int64) *oracle.Registry {
	return sparseapsp.NewTieredOracleRegistry(sparseapsp.Options{Algorithm: sparseapsp.Sparse2D, P: solveP, Seed: solveSeed}, budget, comp)
}

// loopbackTraced sends one graph's requests as /load, /query and
// /reweight over loopback to a fresh in-process apspd handler, so the
// load is as cold as in the layer pipeline.
func loopbackTraced(tr *Tracer, r *Run, g *Graph, req graphRequests, budget, comp int64) error {
	ts := httptest.NewServer(spanned(tr, "server.handler", server.New(newRegistry(budget, comp))))
	defer ts.Close()
	r.front = newClient(ts.URL)
	defer r.front.close()
	fp, err := r.load("load", g)
	if err != nil {
		return err
	}
	ref := newReference(g)
	if err := r.query("query", fp, req.dist, false, ref); err != nil {
		return err
	}
	if err := r.query("path", fp, req.path, true, ref); err != nil {
		return err
	}
	_, err = r.reweight("reweight", fp, g.Clone(), req.edits[0])
	return err
}

// absorb adds another run's request counts and wrong answers.
func (r *Run) absorb(o *Run) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrongs += o.wrongs
	r.wrong = append(r.wrong, o.wrong...)
}

// replayTraced runs the workload's own set-up and loop for dur against
// in-process servers of its topology and reads their counters.
func replayTraced(tr *Tracer, st layerStats, name string, seed int64, dur time.Duration, chk *Run) error {
	wl, _ := newWorkload(name, seed)
	t := wl.topology()
	budget, comp := flagMiB(t.Backend, "-budget-mb"), flagMiB(t.Backend, "-compressed-budget-mb")
	var regs []*oracle.Registry
	var urls []string
	for i := 0; i < t.Backends; i++ {
		reg := newRegistry(budget, comp)
		regs = append(regs, reg)
		ts := httptest.NewServer(spanned(tr, "server.handler", server.New(reg)))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	front := urls[0]
	var rt *fleet.Router
	if t.Router {
		var err error
		if rt, err = fleet.NewRouter(fleet.Config{Backends: urls, Replicas: t.Backends}); err != nil {
			return err
		}
		defer rt.Close()
		ts := httptest.NewServer(spanned(tr, "fleet.router", rt))
		defer ts.Close()
		front = ts.URL
	}
	r := &Run{front: newClient(front), samples: map[string][]float64{}, tr: tr}
	defer r.front.close()
	if err := wl.setup(r); err != nil {
		return err
	}
	for begin := time.Now(); time.Since(begin) < dur; {
		if err := wl.step(r); err != nil && !errors.Is(err, errWrong) {
			return err
		}
	}
	chk.absorb(r)
	var hits, misses, builds, planHits, dem, prom int64
	for _, reg := range regs {
		s := reg.Stats()
		hits, misses, dem, prom = hits+s.Hits, misses+s.Misses, dem+s.Demotions, prom+s.Promotions
		builds, planHits = builds+s.PlanBuilds, planHits+s.PlanHits
	}
	st.add("oracle.hit_frac", float64(hits)/float64(hits+misses))
	st.add("apsp.plan_hit_frac", float64(planHits)/float64(planHits+builds))
	st.add("oracle.demotions", float64(dem))
	st.add("oracle.promotions", float64(prom))
	if rt != nil {
		st.add("fleet.cache_hit_frac", rt.Cache().Stats().HitRate())
	}
	return nil
}

// fleetTraced measures the router layer on the workload's first graph:
// the same path query through the router and directly to a backend,
// the same reweights through the router (fanned out to two replicas)
// and to a standalone backend, and the hot-pair cache on Zipf pairs.
func fleetTraced(tr *Tracer, st layerStats, in layerInputs, rng *rand.Rand, chk *Run) error {
	g := in.graphs[0]
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(spanned(tr, "server.handler", server.New(newRegistry(0, 0))))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := fleet.NewRouter(fleet.Config{Backends: urls[:2], Replicas: 2})
	if err != nil {
		return err
	}
	defer rt.Close()
	rts := httptest.NewServer(spanned(tr, "fleet.router", rt))
	defer rts.Close()
	via := &Run{front: newClient(rts.URL), samples: map[string][]float64{}, tr: tr}
	direct := &Run{front: newClient(urls[0]), samples: map[string][]float64{}, tr: tr}
	alone := &Run{front: newClient(urls[2]), samples: map[string][]float64{}, tr: tr}
	defer via.front.close()
	defer direct.front.close()
	defer alone.front.close()

	fp, err := via.load("", g)
	if err != nil {
		return err
	}
	afp, err := alone.load("", g)
	if err != nil {
		return err
	}
	ref := newReference(g)
	for i := 0; i < 30; i++ {
		pairs := in.path(rng, g)
		if err := via.query("path", fp, pairs, true, ref); err != nil {
			return err
		}
		if err := direct.query("path", fp, pairs, true, ref); err != nil {
			return err
		}
	}
	st.add("fleet.router_overhead_ms", Median(via.samples["path"])-Median(direct.samples["path"]))

	gv, ga := g.Clone(), g.Clone()
	for i := 0; i < 8; i++ {
		edits := in.edit(gv, rng)
		if fp, err = via.reweight("reweight", fp, gv, edits); err != nil {
			return err
		}
		if afp, err = alone.reweight("reweight", afp, ga, edits); err != nil {
			return err
		}
	}
	st.add("fleet.fanout_ms", Median(via.samples["reweight"])-Median(alone.samples["reweight"]))

	if len(st["fleet.cache_hit_frac"]) == 0 {
		z := newZipf(g.N, 1.1, rng)
		ref = newReference(gv)
		for i := 0; i < 20; i++ {
			pairs := make([][2]int, 256)
			for j := range pairs {
				pairs[j] = [2]int{z.draw(rng), z.draw(rng)}
			}
			if err := via.query("", fp, pairs, false, ref); err != nil {
				return err
			}
		}
		st.add("fleet.cache_hit_frac", rt.Cache().Stats().HitRate())
	}
	for _, r := range []*Run{via, direct, alone} {
		chk.absorb(r)
	}
	return nil
}
