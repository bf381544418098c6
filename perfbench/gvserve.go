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
	"sync"
	"syscall"
	"time"
)

// server is one gvserve child process. Its stderr, which carries the
// access log, goes to a file in the run directory.
type server struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	exited  chan struct{}
	logFile *os.File
}

// servers tracks every live child so an error path or a signal can
// stop them all.
var (
	serversMu sync.Mutex
	servers   = map[*server]bool{}
)

// spawn starts gvserve with args plus a fresh loopback -addr.
func spawn(bin, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	// Should the benchmark die without stopping it, the child dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), logFile: lf}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start gvserve: %w", err)
	}
	serversMu.Lock()
	servers[s] = true
	serversMu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is not an error signal here: kill -9 is expected
		close(s.exited)
	}()
	return s, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz every 2ms until it answers 200 and returns
// the time since since.
func (s *server) waitReady(since time.Time, limit time.Duration) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("gvserve exited before it was ready (see %s)", s.logFile.Name())
		default:
		}
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(since), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("gvserve not ready within %s", limit)
}

// stop sends SIGTERM (gvserve shuts down cleanly) and waits; after 10s
// it kills.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.kill()
	}
	s.release()
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.release()
}

func (s *server) release() {
	serversMu.Lock()
	defer serversMu.Unlock()
	if servers[s] {
		delete(servers, s)
		s.logFile.Close()
	}
}

func stopAll() {
	serversMu.Lock()
	live := make([]*server, 0, len(servers))
	for s := range servers {
		live = append(live, s)
	}
	serversMu.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// rssPeakMiB reads the process's VmHWM.
func (s *server) rssPeakMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// client is an HTTP client to one server with at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// requestTimeout bounds every request; a failed request counts as this
// long in the latency percentiles.
const requestTimeout = 10 * time.Second

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and, with keep, the
// body; without keep the body is read and discarded.
func (c *client) do(method, path string, body []byte, keep bool) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// json sends one request and decodes its 200 response into v.
func (c *client) json(method, path string, body []byte, v any) error {
	code, data, err := c.do(method, path, body, true)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// snapshotInfo is the part of /snapshot and /publish the benchmark reads.
type snapshotInfo struct {
	Epoch   uint64 `json:"epoch"`
	Version uint64 `json:"version"`
	Pending uint64 `json:"pending"`
	Edges   int    `json:"edges"`
}

func (c *client) snapshot() (snapshotInfo, error) {
	var s snapshotInfo
	err := c.json(http.MethodGet, "/snapshot", nil, &s)
	return s, err
}

func (c *client) publish() (snapshotInfo, error) {
	var s snapshotInfo
	err := c.json(http.MethodPost, "/publish", nil, &s)
	return s, err
}

// update posts one batch and returns the acknowledged write clock.
func (c *client) update(body []byte) (uint64, error) {
	var r struct {
		Version uint64 `json:"version"`
	}
	err := c.json(http.MethodPost, "/update", body, &r)
	return r.Version, err
}

// scrape reads every series of /metrics, keyed by name plus labels.
func (c *client) scrape() (map[string]float64, error) {
	code, data, err := c.do(http.MethodGet, "/metrics", nil, true)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// epochOf reads the leading "epoch" field of a /query response without
// decoding the rest.
func epochOf(body []byte) (uint64, bool) {
	const key = `"epoch":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	return v, err == nil
}
