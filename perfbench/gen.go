package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
)

// The benchmark generates its own inputs from the seed argument and
// hands them to apspd only as /load bodies, so a change to the
// program's own generators cannot change the traffic. Every weight is a
// small positive integer: float sums of integers are exact, so the
// reference distances must equal the server's bit for bit.

// Edge is one undirected weighted edge.
type Edge struct {
	U, V int
	W    float64
}

// Arc is a half-edge: the far endpoint and the index of its Edge.
type Arc struct {
	To, E int
}

// Graph is the benchmark's own graph: an edge list plus adjacency
// arcs that index into it, so reweighting an edge updates both
// directions at once.
type Graph struct {
	N     int
	Edges []Edge
	Adj   [][]Arc
}

func newGraph(n int) *Graph { return &Graph{N: n, Adj: make([][]Arc, n)} }

func (g *Graph) addEdge(u, v int, w float64) {
	g.Edges = append(g.Edges, Edge{u, v, w})
	e := len(g.Edges) - 1
	g.Adj[u] = append(g.Adj[u], Arc{v, e})
	g.Adj[v] = append(g.Adj[v], Arc{u, e})
}

// Weight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	for _, a := range g.Adj[u] {
		if a.To == v {
			return g.Edges[a.E].W, true
		}
	}
	return 0, false
}

// Clone returns a deep copy whose weights can be edited independently.
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N, Edges: append([]Edge(nil), g.Edges...), Adj: make([][]Arc, g.N)}
	for v, arcs := range g.Adj {
		c.Adj[v] = append([]Arc(nil), arcs...)
	}
	return c
}

// Body is the /load request body: JSON {"n": n, "edges": [[u, v, w], ...]}.
func (g *Graph) Body() []byte {
	edges := make([][3]float64, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	b, err := json.Marshal(struct {
		N     int          `json:"n"`
		Edges [][3]float64 `json:"edges"`
	}{g.N, edges})
	if err != nil {
		panic(err) // only numbers: cannot fail
	}
	return b
}

// subSeed derives the seed of the i-th item of a stream from the run
// seed (splitmix64), so streams under different run seeds share nothing.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func weight(rng *rand.Rand) float64 { return float64(1 + rng.Intn(100)) }

// RGG is a random geometric graph on n points in the unit square
// (the road-network proxy): points closer than a radius just above the
// connectivity threshold are joined, with an integer weight that grows
// with their distance. Stray components are chained to vertex 0's.
func RGG(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	r := math.Sqrt(2.5 * math.Log(float64(n)) / (math.Pi * float64(n)))
	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	cell := func(x float64) int {
		c := int(x * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	buckets := make([][]int, cells*cells)
	for i := range xs {
		b := cell(xs[i])*cells + cell(ys[i])
		buckets[b] = append(buckets[b], i)
	}
	g := newGraph(n)
	for i := range xs {
		cx, cy := cell(xs[i]), cell(ys[i])
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				x, y := cx+dx, cy+dy
				if x < 0 || y < 0 || x >= cells || y >= cells {
					continue
				}
				for _, j := range buckets[x*cells+y] {
					if j <= i {
						continue
					}
					d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
					if d < r {
						g.addEdge(i, j, float64(1+int(99*d/r)))
					}
				}
			}
		}
	}
	// Canonical (u, v) order, independent of the bucket grid.
	sort.Slice(g.Edges, func(a, b int) bool {
		ea, eb := g.Edges[a], g.Edges[b]
		return ea.U < eb.U || ea.U == eb.U && ea.V < eb.V
	})
	g.rebuildAdj()
	comp := components(g)
	linked := map[int]bool{comp[0]: true}
	for v := 0; v < n; v++ {
		if !linked[comp[v]] {
			linked[comp[v]] = true
			g.addEdge(0, v, 100)
		}
	}
	return g
}

func (g *Graph) rebuildAdj() {
	g.Adj = make([][]Arc, g.N)
	for i, e := range g.Edges {
		g.Adj[e.U] = append(g.Adj[e.U], Arc{e.V, i})
		g.Adj[e.V] = append(g.Adj[e.V], Arc{e.U, i})
	}
}

// components labels each vertex with the smallest vertex of its
// connected component.
func components(g *Graph) []int {
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	for s := 0; s < g.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = s
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.Adj[v] {
				if comp[a.To] < 0 {
					comp[a.To] = s
					stack = append(stack, a.To)
				}
			}
		}
	}
	return comp
}

// Grid is a side×side 4-neighbour mesh with random integer weights.
func Grid(side int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := newGraph(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				g.addEdge(v, v+1, weight(rng))
			}
			if r+1 < side {
				g.addEdge(v, v+side, weight(rng))
			}
		}
	}
	return g
}

// Tree is a random recursive tree: vertex v hangs off a uniformly
// chosen earlier vertex, so every pair has exactly one path.
func Tree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := newGraph(n)
	for v := 1; v < n; v++ {
		g.addEdge(rng.Intn(v), v, weight(rng))
	}
	return g
}

// Zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s through a fixed
// permutation, so the popular items are spread over the vertex range.
type Zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, rng *rand.Rand) *Zipf {
	z := &Zipf{cdf: make([]float64, n), perm: rng.Perm(n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *Zipf) draw(rng *rand.Rand) int {
	return z.perm[sort.SearchFloat64s(z.cdf, rng.Float64())]
}
