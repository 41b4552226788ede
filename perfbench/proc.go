package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Proc is one apspd process listening on a loopback port.
type Proc struct {
	cmd  *exec.Cmd
	Base string
	log  *os.File
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// fixedFlags are the flags every process gets: a loopback address and
// a short drain.
func fixedFlags(port string) []string {
	return []string{"-addr", "127.0.0.1:" + port, "-drain", "5s"}
}

// startApspd launches bin with args plus the fixed flags, logging to
// logPath, and waits until /readyz answers 200.
func startApspd(bin string, args []string, logPath string) (*Proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), fixedFlags(strconv.Itoa(port))...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Should the benchmark die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, Base: "http://" + addr, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	if err := p.waitReady(30 * time.Second); err != nil {
		p.Stop()
		return nil, err
	}
	return p, nil
}

func (p *Proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("apspd at %s exited before ready: %v", p.Base, err)
		default:
		}
		if resp, err := hc.Get(p.Base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("apspd at %s not ready after %s", p.Base, timeout)
}

// PeakRSSMiB reads the process's high-water resident set (VmHWM).
func (p *Proc) PeakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// Stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives the wait. It returns once the process has exited.
func (p *Proc) Stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// Client speaks to one apspd (or router) over a single keep-alive
// connection; requests are sent one at a time (a closed loop).
type Client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *Client) close() { c.hc.CloseIdleConnections() }

// Do sends one request and returns the status, the full body and the
// wall time from send to the last body byte.
func (c *Client) Do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// Statsz is the part of apspd's /statsz (or the router's aggregate
// over its backends) that the benchmark reads.
type Statsz struct {
	Solves          int64 `json:"solves"`
	RepairFallbacks int64 `json:"repair_fallbacks"`
	WordsMoved      int64 `json:"words_moved"`
}

// statsz reads the registry counters of the process behind c.
func (c *Client) statsz() (Statsz, error) {
	st, data, _, err := c.Do(http.MethodGet, "/statsz", nil)
	if err != nil {
		return Statsz{}, err
	}
	if st != http.StatusOK {
		return Statsz{}, fmt.Errorf("/statsz: status %d", st)
	}
	var r struct {
		Registry  *Statsz `json:"registry"`  // apspd
		Aggregate *Statsz `json:"aggregate"` // router
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return Statsz{}, fmt.Errorf("/statsz: %w", err)
	}
	if r.Registry == nil {
		r.Registry = r.Aggregate
	}
	if r.Registry == nil {
		return Statsz{}, errors.New("/statsz: no registry section")
	}
	return *r.Registry, nil
}
