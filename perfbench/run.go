package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sparseapsp/internal/server"
)

// Run is one measured run against freshly started apspd processes.
type Run struct {
	procs []*Proc
	front *Client // the process the workload talks to
	tr    *Tracer // when set, each request is a client span

	samples   map[string][]float64 // request class → latencies in ms
	attempted int
	failed    int
	wrongs    int
	wrong     []string // the first wrong answers, for the report
}

// errWrong marks a wrong answer: it fails the run, not just the request.
var errWrong = errors.New("wrong answer")

// Topology is what a workload runs against: the serve-mode flags of
// each backend, and whether a router fronts them.
type Topology struct {
	Backend  []string
	Backends int
	Router   bool
}

// Flags lists every process's exact command line, with the port each
// one draws at start-up left as <port>.
func (t Topology) Flags() []string {
	line := func(args []string) string {
		return "apspd " + strings.Join(append(args, fixedFlags("<port>")...), " ")
	}
	out := []string{fmt.Sprintf("%d× %s", t.Backends, line(t.Backend))}
	if t.Router {
		out = append(out, line(t.routerFlags([]string{"<backends>"})))
	}
	return out
}

func (t Topology) routerFlags(backends []string) []string {
	return []string{"-mode", "router", "-replicas", strconv.Itoa(t.Backends), "-backends", strings.Join(backends, ",")}
}

// start launches the topology and returns a Run talking to its front.
func start(bin, logDir string, t Topology, tag string) (*Run, error) {
	r := &Run{samples: map[string][]float64{}}
	var urls []string
	for i := 0; i < t.Backends; i++ {
		p, err := startApspd(bin, t.Backend, filepath.Join(logDir, fmt.Sprintf("apspd-%s-%d.log", tag, i)))
		if err != nil {
			r.stop()
			return nil, err
		}
		r.procs = append(r.procs, p)
		urls = append(urls, p.Base)
	}
	front := r.procs[0]
	if t.Router {
		p, err := startApspd(bin, t.routerFlags(urls), filepath.Join(logDir, fmt.Sprintf("router-%s.log", tag)))
		if err != nil {
			r.stop()
			return nil, err
		}
		r.procs = append(r.procs, p)
		front = p
	}
	r.front = newClient(front.Base)
	return r, nil
}

func (r *Run) stop() {
	if r.front != nil {
		r.front.close()
	}
	for i := len(r.procs) - 1; i >= 0; i-- {
		r.procs[i].Stop()
	}
	r.procs = nil
}

// peakRSS sums VmHWM over every process of the run.
func (r *Run) peakRSS() (float64, error) {
	sum := 0.0
	for _, p := range r.procs {
		mb, err := p.PeakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// send issues one request. A non-empty class times it; every request
// counts as attempted, and one whose status differs from want counts
// as failed. Only answers with the wanted status are returned for
// checking.
func (r *Run) send(class, path string, body []byte, want int) ([]byte, bool, error) {
	r.attempted++
	st, data, d, err := r.do(path, body)
	if err != nil {
		r.failed++
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	if st != want {
		r.failed++
		return nil, false, nil
	}
	if class != "" {
		r.samples[class] = append(r.samples[class], ms(d))
	}
	return data, true, nil
}

// do posts body to path, inside a client span when the run is traced.
func (r *Run) do(path string, body []byte) (int, []byte, time.Duration, error) {
	if r.tr == nil {
		return r.front.Do(http.MethodPost, path, body)
	}
	r.tr.Request()
	h := r.tr.Begin("client" + path)
	defer r.tr.End(h)
	return r.front.Do(http.MethodPost, path, body)
}

// markWrong records a verified-wrong answer to a request that
// otherwise succeeded.
func (r *Run) markWrong(err error) {
	r.failed++
	r.noteWrong(err)
}

// noteWrong records a wrong answer whose request send already counted
// as failed.
func (r *Run) noteWrong(err error) {
	r.wrongs++
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, err.Error())
	}
}

// mustJSON encodes a request body; the request types hold only
// numbers and strings, so encoding cannot fail.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// load sends a graph body and returns its fingerprint. The workload's
// state depends on every load, so a failed one ends the run.
func (r *Run) load(class string, g *Graph) (string, error) {
	data, ok, err := r.send(class, "/load", g.Body(), http.StatusOK)
	if !ok {
		return "", fmt.Errorf("/load failed: %v", err)
	}
	var info server.GraphInfo
	if err := json.Unmarshal(data, &info); err != nil || info.N != g.N || info.M != len(g.Edges) {
		r.markWrong(fmt.Errorf("/load answered %+v (%v) for n=%d m=%d", info, err, g.N, len(g.Edges)))
		return info.Graph, errWrong
	}
	return info.Graph, nil
}

// query sends one /query batch and checks every answer against ref.
func (r *Run) query(class, fp string, pairs [][2]int, paths bool, ref *Reference) error {
	data, ok, err := r.send(class, "/query", mustJSON(server.QueryRequest{Graph: fp, Pairs: pairs, Paths: paths}), http.StatusOK)
	if !ok {
		return err
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil || len(resp.Dists) != len(pairs) || paths && len(resp.Paths) != len(pairs) {
		r.markWrong(fmt.Errorf("/query: malformed answer for %d pairs (%v)", len(pairs), err))
		return errWrong
	}
	for i, p := range pairs {
		var path []int
		if paths {
			path = resp.Paths[i]
		}
		if err := ref.checkAnswer(p[0], p[1], resp.Dists[i], path, paths); err != nil {
			r.markWrong(err)
			return errWrong
		}
	}
	return nil
}

// reweight applies edits to g (the client's copy), sends them, checks
// that the old fingerprint now answers 404, and returns the new one.
func (r *Run) reweight(class, fp string, g *Graph, edits []Edge) (string, error) {
	body := server.ReweightRequest{Graph: fp, Edits: make([][3]float64, len(edits))}
	for i, e := range edits {
		body.Edits[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	data, ok, err := r.send(class, "/reweight", mustJSON(body), http.StatusOK)
	if !ok {
		return "", fmt.Errorf("/reweight failed: %v", err)
	}
	var resp server.ReweightResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		r.markWrong(fmt.Errorf("/reweight: %w", err))
		return "", errWrong
	}
	applyEdits(g, edits)
	if _, ok, err := r.send("", "/query", mustJSON(server.QueryRequest{Graph: fp, Pairs: [][2]int{{0, 0}}}), http.StatusNotFound); !ok {
		if err == nil {
			err = fmt.Errorf("old fingerprint %.12s still answers after /reweight", fp)
			r.noteWrong(err)
			return "", errWrong
		}
		return "", err
	}
	return resp.Graph, nil
}

// applyEdits sets each edited edge's weight in g.
func applyEdits(g *Graph, edits []Edge) {
	for _, e := range edits {
		for _, a := range g.Adj[e.U] {
			if a.To == e.V {
				g.Edges[a.E].W = e.W
			}
		}
	}
}
