package main

import (
	"container/heap"
	"fmt"
	"math"
)

// Dijkstra returns the single-source distances from s (+Inf where
// unreachable): the benchmark's reference answer.
func Dijkstra(g *Graph, s int) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	h := &distHeap{{s, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(item)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range g.Adj[it.v] {
			if nd := it.d + g.Edges[a.E].W; nd < dist[a.To] {
				dist[a.To] = nd
				heap.Push(h, item{a.To, nd})
			}
		}
	}
	return dist
}

type item struct {
	v int
	d float64
}

type distHeap []item

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Reference answers queries on one graph version, running Dijkstra
// once per distinct source on demand.
type Reference struct {
	g    *Graph
	rows map[int][]float64
}

func newReference(g *Graph) *Reference { return &Reference{g: g, rows: map[int][]float64{}} }

func (r *Reference) dist(u, v int) float64 {
	row, ok := r.rows[u]
	if !ok {
		row = Dijkstra(r.g, u)
		r.rows[u] = row
	}
	return row[v]
}

// checkAnswer verifies one /query answer: the distance must equal the
// reference (-1 encodes unreachable), and a path, when asked for, must
// run from u to v over real edges with a total weight equal to the
// distance.
func (r *Reference) checkAnswer(u, v int, got float64, path []int, withPath bool) error {
	want := r.dist(u, v)
	if math.IsInf(want, 1) {
		if got != -1 {
			return fmt.Errorf("pair (%d,%d): got %v, want unreachable", u, v, got)
		}
		if withPath && path != nil {
			return fmt.Errorf("pair (%d,%d): unreachable but got path %v", u, v, path)
		}
		return nil
	}
	if got != want {
		return fmt.Errorf("pair (%d,%d): got distance %v, want %v", u, v, got, want)
	}
	if !withPath {
		return nil
	}
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return fmt.Errorf("pair (%d,%d): path %v does not join the pair", u, v, path)
	}
	sum := 0.0
	for i := 1; i < len(path); i++ {
		if path[i] < 0 || path[i] >= r.g.N {
			return fmt.Errorf("pair (%d,%d): path vertex %d out of range", u, v, path[i])
		}
		w, ok := r.g.Weight(path[i-1], path[i])
		if !ok {
			return fmt.Errorf("pair (%d,%d): path uses non-edge {%d,%d}", u, v, path[i-1], path[i])
		}
		sum += w
	}
	if sum != want {
		return fmt.Errorf("pair (%d,%d): path weight %v, distance %v", u, v, sum, want)
	}
	return nil
}
