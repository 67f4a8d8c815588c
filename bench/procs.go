package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// site is where the benchmark keeps what it builds and writes: all of
// it under bench/out in the module root, never elsewhere.
type site struct {
	root   string // module root
	out    string // <root>/bench/out
	runDir string // <out>/run-<pid>, removed on exit

	mu    sync.Mutex
	procs []*proc // every process this run started, stopped or not
}

// newSite finds the module root above the working directory and makes
// the run directory.
func newSite() (*site, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(mod, []byte("module c2mn\n")) {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("module c2mn not found above the working directory")
		}
		dir = parent
	}
	s := &site{root: dir, out: filepath.Join(dir, "bench", "out")}
	s.runDir = filepath.Join(s.out, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(s.runDir, 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

// close stops every process still running and removes the run
// directory.
func (s *site) close() {
	s.mu.Lock()
	procs := append([]*proc(nil), s.procs...)
	s.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	os.RemoveAll(s.runDir)
}

func (s *site) bin(name string) string { return filepath.Join(s.out, "bin", name) }

// build compiles the server binaries from the checkout's source. With
// a warm build cache this is a staleness check of about a second.
func (s *site) build() error {
	for _, name := range []string{"msserve", "msrouter"} {
		cmd := exec.Command("go", "build", "-o", s.bin(name), "./cmd/"+name)
		cmd.Dir = s.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", name, err, out)
		}
	}
	return nil
}

// writeVenueFiles stores the venue and model the servers load.
func (s *site) writeVenueFiles(w *world) (spacePath, modelPath string, err error) {
	spacePath = filepath.Join(s.runDir, "space.json")
	modelPath = filepath.Join(s.runDir, "model.json")
	if err = os.WriteFile(spacePath, w.spaceJSON, 0o644); err != nil {
		return "", "", err
	}
	if err = os.WriteFile(modelPath, w.modelJSON, 0o644); err != nil {
		return "", "", err
	}
	return spacePath, modelPath, nil
}

// proc is one server process the benchmark started.
type proc struct {
	kind string // "msserve" or "msrouter"
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
	boot time.Duration // start → ready

	exited   chan struct{} // closed once the process has been reaped
	stopOnce sync.Once
	cpuAtEnd time.Duration
	rssAtEnd float64 // peak resident set, MiB
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches a server binary on a free port and waits until ready
// reports true. Only -addr plus the given flags are passed: the
// benchmark relies on no other flag keeping its meaning.
func (s *site) start(kind string, ready func(base string) bool, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	n := len(s.procs)
	s.mu.Unlock()
	logf, err := os.Create(filepath.Join(s.runDir, fmt.Sprintf("%s-%d.log", kind, n)))
	if err != nil {
		return nil, err
	}
	p := &proc{kind: kind, base: "http://" + addr, log: logf}
	p.cmd = exec.Command(s.bin(kind), append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	dieWithParent(p.cmd)
	began := time.Now()
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", kind, err)
	}
	p.exited = make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(p.exited)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	deadline := began.Add(30 * time.Second)
	for !ready(p.base) {
		if time.Now().After(deadline) || p.hasExited() {
			p.stop()
			tail, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("%s not ready within 30s:\n%s", kind, tail)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.boot = time.Since(began)
	return p, nil
}

// startServe boots one msserve hosting the named venues, ready when
// /v1/readyz answers 200.
func (s *site) startServe(spacePath, modelPath string, venues ...string) (*proc, error) {
	var args []string
	for _, v := range venues {
		args = append(args, "-venue", v+"="+spacePath+","+modelPath)
	}
	return s.start("msserve", func(base string) bool { return getStatus(base+"/v1/readyz") == http.StatusOK }, args...)
}

// startRouter boots msrouter over the backends, ready when its
// /v1/venues lists every expected venue (discovery has run).
func (s *site) startRouter(backends []*proc, venues []string) (*proc, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.base
	}
	ready := func(base string) bool {
		var resp struct {
			Venues []struct {
				Venue string `json:"venue"`
			} `json:"venues"`
		}
		if getJSON(base+"/v1/venues", &resp) != nil {
			return false
		}
		return len(resp.Venues) == len(venues)
	}
	return s.start("msrouter", ready, "-backends", strings.Join(urls, ","))
}

// stop kills the process, waits until it has ended and records its
// CPU time and peak memory.
func (p *proc) stop() {
	p.stopOnce.Do(func() {
		p.cpuAtEnd, p.rssAtEnd = p.cpu(), p.peakRSS()
		p.cmd.Process.Kill()
		<-p.exited
		p.log.Close()
	})
}

func (p *proc) hasExited() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

// cpu is the process's user + system CPU time so far, from
// /proc/<pid>/stat. It returns the value captured at stop for a
// stopped process.
func (p *proc) cpu() time.Duration {
	if p.hasExited() {
		return p.cpuAtEnd
	}
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return p.cpuAtEnd
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := buf[bytes.LastIndexByte(buf, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * (time.Second / clockTicks)
}

// clockTicks is USER_HZ, 100 on every Linux port Go supports.
const clockTicks = 100

// peakRSS is VmHWM from /proc/<pid>/status in MiB.
func (p *proc) peakRSS() float64 {
	if p.hasExited() {
		return p.rssAtEnd
	}
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return p.rssAtEnd
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPU is the benchmark process's own user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf sums the CPU time of processes.
func cpuOf(procs []*proc) time.Duration {
	var sum time.Duration
	for _, p := range procs {
		sum += p.cpu()
	}
	return sum
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func getStatus(url string) int {
	resp, err := probeClient.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
