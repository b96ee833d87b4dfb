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
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of keep-alive connections, and so of requests in
// flight: the host's core count of the reference machine (2). Each
// connection is one closed-loop caller.
const conns = 2

// daemon is a running pacstack-serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *bytes.Buffer
	exited chan struct{}
}

// startDaemon execs pacstack-serve with its default flags and a
// loopback address, and waits until /healthz answers.
func startDaemon(e *env) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cmd := command(e, "pacstack-serve", "-addr", addr)
	var logBuf bytes.Buffer
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pacstack-serve: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		log:    &logBuf,
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if d.dead() {
			return nil, fmt.Errorf("pacstack-serve exited during start-up: %s", logBuf.String())
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pacstack-serve did not become healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// command prepares one of the built binaries to run in the work
// directory. The kernel kills it if the benchmark dies first, so no
// process outlives a benchmark run.
func command(e *env, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// freeLoopbackAddr picks a free loopback port.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon that has not exited after 30 s is killed.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if d.dead() {
		return d.exitErr()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.exitErr()
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("pacstack-serve did not drain within 30s")
	}
}

// dead reports whether the daemon process has exited.
func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

func (d *daemon) exitErr() error {
	if st := d.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("pacstack-serve exited with %v: %s", st, d.log.String())
	}
	return nil
}

// send posts one run request and reads the whole reply.
func (d *daemon) send(req request) (status int, body []byte, err error) {
	payload, err := json.Marshal(req.Request)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Post(d.base+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// get fetches a GET endpoint's body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// sample is one checked, timed response.
type sample struct {
	req  request
	c    checked
	lat  time.Duration // client-observed: request written to reply read
	done time.Duration // completion time since the drive started
}

// drive sends the stream's requests over the keep-alive connections,
// each caller waiting for its reply before taking the next index,
// starting at index from, until stop reports true for the next index
// (or the elapsed time). Every reply is checked against refs.
func (d *daemon) drive(from int, at func(i int) request, stop func(i int, elapsed time.Duration) bool, refs map[pair]ref) []sample {
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i, time.Since(start)) || d.dead() {
					return
				}
				req := at(i)
				t0 := time.Now()
				status, body, err := d.send(req)
				lat := time.Since(t0)
				out[c] = append(out[c], sample{
					req:  req,
					c:    classify(req.Request, status, body, err, refs),
					lat:  lat,
					done: time.Since(start),
				})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// scrape reads /metrics and sums every sample of each metric name over
// its label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

// parseMetrics sums Prometheus text samples by metric name, keeping
// labelled samples of the serve outcome family apart by their label.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if strings.HasPrefix(name, "pacstack_serve_outcomes_total") {
				out[name] += v
			}
			name = name[:b]
		}
		out[name] += v
	}
	return out
}

// eventSeq reads the security-event ring's next sequence number.
func (d *daemon) eventSeq() (uint64, error) {
	body, err := d.get("/events")
	if err != nil {
		return 0, err
	}
	var snap struct {
		NextSeq uint64 `json:"next_seq"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, fmt.Errorf("decoding /events: %w", err)
	}
	return snap.NextSeq, nil
}

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rp := bytes.LastIndexByte(raw, ')')
	if rp < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[rp+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb * 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
