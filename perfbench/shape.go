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
	"syscall"
	"time"
)

// healthTimeout bounds how long a process may take to answer
// /api/v1/live: a node that never becomes healthy fails the run.
const healthTimeout = 60 * time.Second

// proc is one running cmd/pivote process of a shape.
type proc struct {
	role string // server, router or node
	base string // http://127.0.0.1:<port>
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
	log  string
}

// shape is a workload's process topology on localhost. entry is where
// the clients send their requests.
type shape struct {
	procs []*proc
	entry string
}

// freePort asks the kernel for an unused localhost port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func start(bin, logDir, role string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(logDir, role+"-"+strconv.Itoa(port)+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// A benchmark that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	p := &proc{role: role, base: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// launch starts the workload's shape and waits until every process
// answers GET /api/v1/live with 200. It returns the set-up time: from
// the first exec until the last process is healthy.
func launch(ctx context.Context, w workload, bin, logDir string) (*shape, time.Duration, error) {
	t0 := time.Now()
	sh := &shape{}
	graph := []string{"-scale", strconv.Itoa(w.scale), "-seed", strconv.Itoa(graphSeed)}
	add := func(role string, args ...string) error {
		p, err := start(bin, logDir, role, args...)
		if err != nil {
			return err
		}
		sh.procs = append(sh.procs, p)
		return nil
	}
	var err error
	switch {
	case w.routed:
		for k := 0; k < 2 && err == nil; k++ {
			err = add("node", append(graph, "-shard-of", fmt.Sprintf("%d/2", k))...)
		}
		if err == nil {
			err = add("router", "-router", sh.procs[0].base+","+sh.procs[1].base)
		}
	case w.live:
		err = add("server", append(graph, "-live")...)
	default:
		err = add("server", graph...)
	}
	if err == nil {
		err = sh.waitHealthy(ctx)
	}
	if err != nil {
		sh.stop()
		return nil, 0, err
	}
	sh.entry = sh.procs[len(sh.procs)-1].base
	return sh, time.Since(t0), nil
}

func (sh *shape) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(healthTimeout)
	for _, p := range sh.procs {
		for {
			resp, err := client.Get(p.base + "/api/v1/live")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-p.done:
				return fmt.Errorf("%s exited before becoming healthy (%v); log: %s", p.role, p.err, p.log)
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s at %s not healthy after %s; log: %s", p.role, p.base, healthTimeout, p.log)
			}
		}
	}
	return nil
}

// sample reads every process's /proc figures.
func (sh *shape) sample() ([]procSample, error) {
	out := make([]procSample, len(sh.procs))
	for i, p := range sh.procs {
		s, err := readProc(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.role, err)
		}
		out[i] = s
	}
	return out, nil
}

// stop terminates every process (SIGTERM, then SIGKILL after a grace
// period) and waits until each has exited.
func (sh *shape) stop() {
	for _, p := range sh.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	}
	for _, p := range sh.procs {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
				fmt.Fprintf(os.Stderr, "kill %s: %v\n", p.role, err)
			}
			<-p.done
		}
	}
	sh.procs = nil
}
