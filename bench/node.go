package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Timeouts: a boot that never answers /healthz, a drain that never
// exits and a request that never returns each fail the run instead of
// hanging it (the server's own drain grace is 30 s).
const (
	buildTimeout = 10 * time.Minute
	bootTimeout  = 30 * time.Second
	exitTimeout  = 60 * time.Second
	reqTimeout   = 15 * time.Second
)

// sandbox is where a run keeps everything it writes: the node binary
// and per-run snapshot directories live under <root>/.bench_build.
type sandbox struct {
	root    string // repository (checkout) root
	nodeBin string
	tmp     string // this run's private directory, removed at exit
	buildS  float64
}

// findRoot locates the checkout root: the parent of the directory
// holding this module (go run -C bench puts us inside it).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, cand := range []string{filepath.Dir(wd), wd} {
		if _, err := os.Stat(filepath.Join(cand, "cmd", "seuss-node", "main.go")); err == nil {
			return cand, nil
		}
	}
	return "", fmt.Errorf("no cmd/seuss-node above %s: run from a checkout of the repository", wd)
}

// newSandbox builds cmd/seuss-node from the working tree (timed, and
// reported apart from setup_s) and creates the run's private directory.
func newSandbox() (*sandbox, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	// go install leaves an up-to-date binary alone, so only the first
	// run in a checkout (or after an edit) writes it.
	bin := filepath.Join(build, "bin")
	sb := &sandbox{root: root, tmp: tmp, nodeBin: filepath.Join(bin, "seuss-node")}
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "install", "./cmd/seuss-node")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOBIN="+bin)
	if out, err := cmd.CombinedOutput(); err != nil {
		sb.close()
		return nil, fmt.Errorf("go install ./cmd/seuss-node: %v\n%s", err, out)
	}
	sb.buildS = time.Since(start).Seconds()
	return sb, nil
}

// close stops every child still running and removes the run directory.
func (sb *sandbox) close() {
	killAll()
	os.RemoveAll(sb.tmp)
}

// snapdir makes a fresh, empty snapshot directory for one workload.
func (sb *sandbox) snapdir() (string, error) {
	return os.MkdirTemp(sb.tmp, "snap-")
}

// ---- child processes ----

// Children are forked from one goroutine pinned to an OS thread that
// never exits: Pdeathsig is delivered when the *thread* that forked
// dies, so a pinned forker makes "the benchmark was SIGKILLed" take the
// servers with it without ever firing early.
type forkReq struct {
	cmd *exec.Cmd
	err chan error
}

var (
	forkOnce sync.Once
	forkCh   = make(chan forkReq)

	liveMu sync.Mutex
	live   = map[*node]struct{}{}
)

func forker() {
	runtime.LockOSThread()
	for r := range forkCh {
		r.err <- r.cmd.Start()
	}
}

// killAll is the last line of defence on every exit path.
func killAll() {
	liveMu.Lock()
	nodes := make([]*node, 0, len(live))
	for n := range live {
		nodes = append(nodes, n)
	}
	liveMu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// node is one running seuss-node process.
type node struct {
	cmd     *exec.Cmd
	addr    string
	pid     int
	logf    *os.File
	bootS   float64 // exec → first /healthz ok
	exited  chan struct{}
	hwmKB   float64 // VmHWM read just before the process was stopped
	snapdir string  // its -snapdir, when a set-up cycle made one for it
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; seuss-node logs ":0" verbatim, so
// this is the only way to learn the port from outside.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// boot starts seuss-node -shards 2 with extra flags and waits for
// /healthz to answer ok.
func (sb *sandbox) boot(extra ...string) (*node, error) {
	forkOnce.Do(func() { go forker() })
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(sb.tmp, "node-*.log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-shards", "2"}, extra...)
	cmd := exec.Command(sb.nodeBin, args...)
	cmd.Dir = sb.tmp
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	n := &node{cmd: cmd, addr: addr, logf: logf, exited: make(chan struct{})}
	start := time.Now()
	req := forkReq{cmd: cmd, err: make(chan error, 1)}
	forkCh <- req
	if err := <-req.err; err != nil {
		logf.Close()
		return nil, fmt.Errorf("start seuss-node: %w", err)
	}
	n.pid = cmd.Process.Pid
	liveMu.Lock()
	live[n] = struct{}{}
	liveMu.Unlock()
	go func() {
		cmd.Wait()
		close(n.exited)
	}()
	for {
		if n.healthy() {
			break
		}
		select {
		case <-n.exited:
			return nil, fmt.Errorf("seuss-node exited during boot:\n%s", n.logTail())
		default:
		}
		if time.Since(start) > bootTimeout {
			n.kill()
			return nil, fmt.Errorf("seuss-node not healthy after %v:\n%s", bootTimeout, n.logTail())
		}
		time.Sleep(500 * time.Microsecond)
	}
	n.bootS = time.Since(start).Seconds()
	return n, nil
}

var ctl = &http.Client{
	Timeout:   reqTimeout,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// get fetches a control-plane endpoint (never part of a timed phase).
func (n *node) get(path string) ([]byte, error) {
	resp, err := ctl.Get("http://" + n.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

// healthy reports whether /healthz answers with status ok.
func (n *node) healthy() bool {
	body, err := n.get("/healthz")
	if err != nil {
		return false
	}
	var h struct {
		Status string `json:"status"`
	}
	return json.Unmarshal(body, &h) == nil && h.Status == "ok"
}

// stop ends the process with sig and waits for it to be gone, killing
// it if it outlives exitTimeout. It returns signal → exit in seconds.
func (n *node) stop(sig syscall.Signal) (float64, error) {
	select {
	case <-n.exited:
		n.forget()
		return 0, errors.New("seuss-node had already exited:\n" + n.logTail())
	default:
	}
	n.noteHWM()
	start := time.Now()
	if err := n.cmd.Process.Signal(sig); err != nil {
		n.kill()
		return 0, err
	}
	select {
	case <-n.exited:
	case <-time.After(exitTimeout):
		n.kill()
		return 0, fmt.Errorf("seuss-node still running %v after %v:\n%s", exitTimeout, sig, n.logTail())
	}
	d := time.Since(start).Seconds()
	n.forget()
	return d, nil
}

// drain is the graceful stop: SIGTERM → exit, the node.drain_s interval.
func (n *node) drain() (float64, error) { return n.stop(syscall.SIGTERM) }

// kill is the unconditional stop used on error paths and by boots that
// have nothing to persist.
func (n *node) kill() {
	select {
	case <-n.exited:
	default:
		n.noteHWM()
		n.cmd.Process.Kill()
		<-n.exited
	}
	n.forget()
}

func (n *node) forget() {
	liveMu.Lock()
	delete(live, n)
	liveMu.Unlock()
	n.logf.Close()
}

// flushed reads, from a drained node's log, how many snapshots its
// shutdown wrote to the disk tier (the flush runs after /stats is gone).
func (n *node) flushed() float64 {
	data, err := os.ReadFile(n.logf.Name())
	if err != nil {
		return 0
	}
	const mark = "flushed "
	i := bytes.LastIndex(data, []byte(mark))
	if i < 0 {
		return 0
	}
	var count float64
	fmt.Sscanf(string(data[i+len(mark):]), "%f function snapshots", &count)
	return count
}

func (n *node) logTail() string {
	data, err := os.ReadFile(n.logf.Name())
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// cpuSeconds is the CPU time a process has used, in seconds: the sum of
// its threads' on-CPU time from /proc/<pid>/task/*/schedstat, which the
// scheduler keeps in nanoseconds. (utime+stime in /proc/<pid>/stat is
// the same quantity rounded to 10 ms ticks — too coarse for a segment
// of a phase.) Neither the server nor this process retires threads
// while it is being measured, so the sum never steps backwards.
func cpuSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if len(tasks) == 0 {
		return cpuSecondsTicks(pid) // a kernel without CONFIG_SCHED_INFO
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, errors.New("malformed schedstat " + t)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, errors.New("malformed schedstat " + t)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// cpuSecondsTicks reads utime+stime from /proc/<pid>/stat. Their unit,
// USER_HZ, is 100 on every Linux ABI Go supports.
func cpuSecondsTicks(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat")
	}
	return (ut + st) / 100, nil
}

// procRSSKB reads VmHWM (peak) and VmRSS (current) in KB.
func procRSSKB(pid int) (hwm, rss float64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		for _, want := range []struct {
			prefix string
			dst    *float64
		}{{"VmHWM:", &hwm}, {"VmRSS:", &rss}} {
			if strings.HasPrefix(line, want.prefix) {
				fields := strings.Fields(line[len(want.prefix):])
				if len(fields) > 0 {
					*want.dst, _ = strconv.ParseFloat(fields[0], 64)
				}
			}
		}
	}
	if hwm == 0 {
		return 0, 0, errors.New("no VmHWM in /proc status")
	}
	return hwm, rss, sc.Err()
}

// noteHWM keeps the process's peak RSS while /proc still has it.
func (n *node) noteHWM() {
	if hwm, _, err := procRSSKB(n.pid); err == nil {
		n.hwmKB = hwm
	}
}

// selfCPUSeconds is this process's own CPU time.
func selfCPUSeconds() float64 {
	s, _ := cpuSeconds(os.Getpid())
	return s
}
