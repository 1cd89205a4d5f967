package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// sheriffd is one running server subprocess. Its stderr — the
// per-request log, boot lines and, when traced, gctrace — goes to a file.
type sheriffd struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	spawned time.Time
	exited  chan struct{}
}

// compactWALBytes lifts sheriffd's WAL compaction trigger above what a
// run writes. At the 32 MiB default a compaction — a writer pause that
// rewrites the whole dataset — would land in some runs' timed window and
// not others, depending on throughput. The rewrite is the checkpoint every
// restart performs, timed as store.checkpoint_s; the traced run forces one
// compaction to time the writer stall.
const compactWALBytes = 1 << 30

// live tracks every started subprocess so any exit path can kill them.
var live struct {
	sync.Mutex
	procs map[*sheriffd]bool
	// stopping is set once an exit path has killed everything; no new
	// process may start after that.
	stopping bool
}

// serverConfig is how every sheriffd of a run is started.
type serverConfig struct {
	bin      string
	seed     int64
	longtail int
	gctrace  bool
}

// start spawns sheriffd on dataDir at -fsync interval, on a fresh
// ephemeral loopback port.
func (c serverConfig) start(dataDir, logPath string) (*sheriffd, error) {
	for attempt := 0; ; attempt++ {
		s, err := c.startOnce(dataDir, logPath)
		if err == nil || attempt == 2 {
			return s, err
		}
	}
}

func (c serverConfig) startOnce(dataDir, logPath string) (*sheriffd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(c.bin, "-addr", addr, "-seed", strconv.FormatInt(c.seed, 10),
		"-longtail", strconv.Itoa(c.longtail), "-data-dir", dataDir, "-fsync", "interval",
		"-compact-wal-bytes", strconv.Itoa(compactWALBytes))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = os.Environ()
	if c.gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	s := &sheriffd{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	s.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sheriffd: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*sheriffd]bool{}
	}
	live.procs[s] = true
	stopping := live.stopping
	live.Unlock()
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	if stopping {
		s.kill()
		return nil, fmt.Errorf("benchmark is stopping")
	}
	if err := s.waitReady(2 * time.Minute); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitReady polls /api/v1/readyz until it answers 200.
func (s *sheriffd) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("sheriffd exited during boot; see %s", s.logPath)
		default:
		}
		resp, err := probeClient.Get(s.base + "/api/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("sheriffd not ready after %v; see %s", limit, s.logPath)
}

// kill sends SIGKILL (the crash the restart phase recovers from) and
// waits for the process to be gone.
func (s *sheriffd) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	live.Lock()
	delete(live.procs, s)
	live.Unlock()
}

func killAll() {
	live.Lock()
	live.stopping = true
	procs := make([]*sheriffd, 0, len(live.procs))
	for s := range live.procs {
		procs = append(procs, s)
	}
	live.Unlock()
	for _, s := range procs {
		s.kill()
	}
}

// cpuMs is the process's user+system CPU so far.
func (s *sheriffd) cpuMs() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	t, err := cpuTicks(b)
	return float64(t) * 1000 / clockTicksPerSec, err
}

// peakRSSMB is the process's VmHWM.
func (s *sheriffd) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	kb, err := statusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}

// gcCycles reads the gctrace lines the process has logged so far.
func (s *sheriffd) gcCycles() ([]gcCycle, error) {
	f, err := os.Open(s.logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []gcCycle
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if c, ok := parseGCTrace(sc.Text()); ok {
			out = append(out, c)
		}
	}
	return out, sc.Err()
}

// window is a timed phase as offsets from the process's spawn.
type window struct{ from, to time.Duration }

func (s *sheriffd) sinceSpawn() time.Duration { return time.Since(s.spawned) }

// gcIn sums the gctrace cycles that started inside any of the windows.
func gcIn(cycles []gcCycle, wins []window) (n int, cpuMs float64) {
	for _, c := range cycles {
		for _, w := range wins {
			if c.at >= w.from && c.at < w.to {
				n++
				cpuMs += c.cpuMs
			}
		}
	}
	return n, cpuMs
}

// copyDir copies a data directory's regular files and makes the copy
// durable (see syncDir).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return syncDir(dst)
}

// syncDir fsyncs a data directory's regular files and the directory, so
// a sheriffd started on it does not pay in its own fsyncs for writing
// back what the benchmark (or a killed sheriffd) left in the page cache:
// an operator's data dir is on disk before a restart.
func syncDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := syncFile(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return syncFile(dir)
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

var newline = []byte{'\n'}

// streamExport reads one full NDJSON export and counts its lines.
func streamExport(ctx context.Context, hc *http.Client, base string) (lines int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/observations", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("export: status %d", resp.StatusCode)
	}
	buf := make([]byte, 64<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		lines += bytes.Count(buf[:n], newline)
		if rerr == io.EOF {
			return lines, nil
		}
		if rerr != nil {
			return lines, rerr
		}
	}
}
