package main

import (
	"bytes"
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

// repoRoot walks up from the working directory to the checkout that holds
// cmd/skylined: `go run -C benchmark .` and `go test` both start inside
// benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "skylined", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/skylined not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/skylined from the checkout's source into outDir.
// The build lands under a temporary name first so an interrupted build never
// leaves a half-written binary behind.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "skylined")
	tmp := fmt.Sprintf("%s.%d", bin, os.Getpid())
	cmd := exec.CommandContext(ctx, "go", "build", "-o", tmp, "./cmd/skylined")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/skylined: %w\n%s", err, out)
	}
	if err := os.Rename(tmp, bin); err != nil {
		return "", err
	}
	return bin, nil
}

// freeAddr finds a free loopback port by binding port 0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// proc is one spawned skylined process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// spawn starts skylined with the given arguments on a free loopback port,
// logging to dir/<name>.log. Canceling ctx (SIGINT) SIGTERMs the process.
func spawn(ctx context.Context, bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls path until it answers 200, the process exits or ctx ends.
func (p *proc) waitReady(ctx context.Context, hc *http.Client, path string) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+path, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			body := new(bytes.Buffer)
			_, _ = body.ReadFrom(resp.Body) // a short body; a read error shows as not ready
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if strings.Contains(body.String(), "unreachable") {
					return fmt.Errorf("%s ready but shards unreachable: %s", p.name, body)
				}
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before ready: %v\n%s", p.name, p.waitErr, p.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 120s\n%s", p.name, p.logTail())
		}
	}
}

// stop SIGTERMs the process and waits for it; a process that ignores the
// signal for 20 s is killed.
func (p *proc) stop() error {
	select {
	case <-p.exited:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only when already gone
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("%s ignored SIGTERM and was killed", p.name)
	}
	var ee *exec.ExitError
	if p.waitErr != nil && !errors.As(p.waitErr, &ee) {
		return p.waitErr
	}
	if ee != nil && ee.ExitCode() > 0 {
		return fmt.Errorf("%s exited with code %d\n%s", p.name, ee.ExitCode(), p.logTail())
	}
	return nil
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// peakRSSKB reads VmHWM, the process's peak resident set, from /proc.
func (p *proc) peakRSSKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuMS reads utime+stime from /proc/<pid>/stat. Linux reports them in
// clock ticks of 1/100 s (USER_HZ).
func (p *proc) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	_, rest, ok := strings.Cut(string(b), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 10, nil
}

// fleet is the set of processes one workload runs against; load goes to url
// (the single node, or the coordinator).
type fleet struct {
	procs []*proc
	url   string
	setup time.Duration // first spawn → url's /readyz 200
}

// stop terminates every process, coordinator first, and waits for each.
func (f *fleet) stop() error {
	var errs []error
	for i := len(f.procs) - 1; i >= 0; i-- {
		errs = append(errs, f.procs[i].stop())
	}
	f.procs = nil
	return errors.Join(errs...)
}

func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total / 1024, nil
}

func (f *fleet) cpuMS() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		ms, err := p.cpuMS()
		if err != nil {
			return 0, err
		}
		total += ms
	}
	return total, nil
}
