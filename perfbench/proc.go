package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one spawned solverd or gateway process listening on loopback.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds, so a collision is possible but rare;
// spawn reports it as a failed readiness wait.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts bin with args plus -addr on a fresh loopback port. The
// child's output is discarded (solverd logs every request) and it is
// killed if this process dies first.
func spawn(binDir, bin, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon is not interesting
		close(d.done)
	}()
	return d, nil
}

// waitReady polls path until it answers 200, the process exits or the
// deadline passes.
func (d *daemon) waitReady(c *http.Client, path string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+path, nil)
		resp, err := c.Do(req)
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before becoming ready", d.name)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready within %s", d.name, timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the exit and kills the process if the
// drain takes longer than a few seconds.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone: Wait has returned
	select {
	case <-d.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the user plus system CPU the process used so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// peakRSSMB is the process's VmHWM from /proc/<pid>/status, in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleetProcs is the set of daemons one workload runs against.
type fleetProcs struct {
	nodes   []*daemon
	gateway *daemon
}

func (f *fleetProcs) all() []*daemon {
	out := append([]*daemon(nil), f.nodes...)
	if f.gateway != nil {
		out = append(out, f.gateway)
	}
	return out
}

// front is the URL clients send requests to.
func (f *fleetProcs) front() string {
	if f.gateway != nil {
		return f.gateway.url
	}
	return f.nodes[0].url
}

func (f *fleetProcs) stop() {
	if f == nil {
		return
	}
	// The gateway first, so it never probes a node that already left.
	f.gateway.stop()
	for _, n := range f.nodes {
		n.stop()
	}
}

// cpu sums the CPU seconds of every daemon.
func (f *fleetProcs) cpu() (float64, error) {
	var total float64
	for _, d := range f.all() {
		s, err := cpuSeconds(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += s
	}
	return total, nil
}

// peakRSS is the largest VmHWM of any daemon.
func (f *fleetProcs) peakRSS() (float64, error) {
	var peak float64
	for _, d := range f.all() {
		mb, err := peakRSSMB(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// startFleet spawns nodes solverd processes with the given worker count
// and, when withGateway is set, a gateway in front of them; it returns once
// every process answers its readiness probe.
func startFleet(binDir string, c *http.Client, nodes, workers int, withGateway bool) (*fleetProcs, error) {
	f := &fleetProcs{}
	for i := 0; i < nodes; i++ {
		d, err := spawn(binDir, "solverd", fmt.Sprintf("n%d", i), "-workers", strconv.Itoa(workers))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, d)
	}
	for _, d := range f.nodes {
		if err := d.waitReady(c, "/readyz", 20*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	if !withGateway {
		return f, nil
	}
	g, err := startGateway(binDir, c, f.nodes)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gateway = g
	return f, nil
}

// startGateway spawns a gateway routing to the given nodes.
func startGateway(binDir string, c *http.Client, nodes []*daemon) (*daemon, error) {
	var args []string
	for _, n := range nodes {
		args = append(args, "-node", n.name+"="+n.url)
	}
	g, err := spawn(binDir, "gateway", "gateway", args...)
	if err != nil {
		return nil, err
	}
	if err := g.waitReady(c, "/readyz", 20*time.Second); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}
