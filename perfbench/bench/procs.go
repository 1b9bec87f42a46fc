package bench

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kbharvest/internal/core"
)

// Scale and Shards fix the KB every workload builds and serves.
const (
	Scale  = 4
	Shards = 2
)

// RunLimit bounds a whole run, so that a stalled tier ends it with an
// error instead of holding it past the three minutes a run may take.
const RunLimit = 170 * time.Second

// Procs owns the long-running child processes of one benchmark run.
// StopAll kills every child still running and waits for it, so no child
// outlives the run, whether it ends normally, fails or is interrupted.
type Procs struct {
	bin, logDir string
	mu          sync.Mutex
	live        []*Proc
}

// NewProcs starts children from the binaries in bin and logs their output
// to files in logDir.
func NewProcs(bin, logDir string) *Procs { return &Procs{bin: bin, logDir: logDir} }

// Proc is one child process serving HTTP on a loopback port.
type Proc struct {
	Name string
	URL  string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has exited
}

// childAttr makes a child die with the benchmark even if the benchmark
// itself is killed before its cleanup runs.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Start runs binary name with args plus -addr on a free loopback port.
func (ps *Procs) Start(name string, args ...string) (*Proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(ps.logDir, fmt.Sprintf("%s-%d.log", name, port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(ps.bin, name), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &Proc{Name: name, URL: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()
	return p, nil
}

// Kill stops p and waits until it has exited.
func (ps *Procs) Kill(p *Proc) {
	p.cmd.Process.Kill()
	<-p.done
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			break
		}
	}
}

// StopAll kills every live child and waits for each.
func (ps *Procs) StopAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, p := range live {
		p.cmd.Process.Kill()
		<-p.done
	}
}

// logTail returns the end of p's log, for error messages.
func (p *Proc) logTail() string {
	b, _ := os.ReadFile(p.log) // best effort: only decorates an error
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// PeakRSSMiB reads the process's peak resident set (VmHWM).
func (p *Proc) PeakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.Name)
}

// Tier is a serving tier: kbserve shards and the kbrouter in front.
type Tier struct {
	Shards []*Proc
	Router *Proc
}

// All lists the tier's processes.
func (t *Tier) All() []*Proc { return append(append([]*Proc{}, t.Shards...), t.Router) }

// StartShards launches one kbserve per snapshot file.
func (ps *Procs) StartShards(snapshots []string) ([]*Proc, error) {
	var shards []*Proc
	for _, snap := range snapshots {
		p, err := ps.Start("kbserve", "-kb", snap)
		if err != nil {
			return nil, err
		}
		shards = append(shards, p)
	}
	return shards, nil
}

// StartRouter launches a kbrouter over the given shard URLs, in
// partition order.
func (ps *Procs) StartRouter(shardURLs []string) (*Proc, error) {
	return ps.Start("kbrouter", "-shards", strings.Join(shardURLs, ","))
}

// StartTier launches the shards and the router and waits until every
// one answers /readyz with 200. It returns that set-up time.
func (ps *Procs) StartTier(ctx context.Context, snapshots []string) (*Tier, time.Duration, error) {
	t0 := time.Now()
	shards, err := ps.StartShards(snapshots)
	if err != nil {
		return nil, 0, err
	}
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.URL
	}
	router, err := ps.StartRouter(urls)
	if err != nil {
		return nil, 0, err
	}
	t := &Tier{Shards: shards, Router: router}
	if err := WaitReady(ctx, t.All()...); err != nil {
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

// KillTier stops every process of t.
func (ps *Procs) KillTier(t *Tier) {
	for _, p := range t.All() {
		ps.Kill(p)
	}
}

// readyClient polls /readyz; a short timeout keeps a wedged child from
// stalling the poll loop.
var readyClient = &http.Client{Timeout: time.Second}

// WaitReady polls each process's /readyz until all have answered 200.
func WaitReady(ctx context.Context, procs ...*Proc) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for _, p := range procs {
		for {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/readyz", nil) // URL is well formed
			if resp, err := readyClient.Do(req); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-p.done:
				return fmt.Errorf("%s exited before it was ready: %s", p.Name, p.logTail())
			case <-ctx.Done():
				return fmt.Errorf("%s not ready: %w", p.Name, ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// BuildRun is one kbbuild invocation.
type BuildRun struct {
	Wall      time.Duration
	Facts     int     // the fact count kbbuild reports
	PeakRSS   float64 // MiB
	Snapshots []string
}

var factsLine = regexp.MustCompile(`(?m)^kb: (\d+) facts`)

// RunBuild runs kbbuild at the benchmark's scale and shard count, writing
// the snapshot shards into dir.
func RunBuild(ctx context.Context, bin, dir string, seed int64) (*BuildRun, error) {
	out := filepath.Join(dir, "kb.nt")
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "kbbuild"),
		"-scale", strconv.Itoa(Scale), "-seed", strconv.FormatInt(seed, 10),
		"-shards", strconv.Itoa(Shards), "-out", out)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	cmd.SysProcAttr = childAttr()
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("kbbuild: %w: %s", err, buf.String())
	}
	m := factsLine.FindSubmatch(buf.Bytes())
	if m == nil {
		return nil, errors.New("kbbuild: no fact count in its output")
	}
	facts, _ := strconv.Atoi(string(m[1])) // \d+ always parses
	r := &BuildRun{Wall: wall, Facts: facts}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	for i := 0; i < Shards; i++ {
		r.Snapshots = append(r.Snapshots, filepath.Join(dir, fmt.Sprintf("kb.%d.nt", i)))
	}
	return r, nil
}

// LoadSnapshots loads every shard file into one merged store.
func LoadSnapshots(paths []string) (*core.Store, error) {
	st := core.NewStore()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		_, err = st.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", p, err)
		}
	}
	return st, nil
}
