package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

const (
	namespace     = "bench"
	healthTimeout = 15 * time.Second
)

// buildServer compiles cmd/skylined from the source tree the harness
// itself was built from into dir and returns the binary's path.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "skylined"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/skylined")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/skylined: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running skylined child.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *bytes.Buffer
	done chan struct{} // closed once Wait returned
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on this host races
// for loopback ports during a run.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// boot starts skylined with one namespace and waits for /healthz. The
// child dies with ctx; on any error it is already stopped.
func boot(ctx context.Context, bin, runDir string, ns serve.NamespaceConfig) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	blob, err := json.Marshal(serve.Config{Namespaces: map[string]serve.NamespaceConfig{namespace: ns}})
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(runDir, "skylined.json")
	if err := os.WriteFile(cfgPath, blob, 0o644); err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, log: new(bytes.Buffer), done: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, "-config", cfgPath, "-listen", addr)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start skylined: %w", err)
	}
	go func() {
		s.cmd.Wait() //errlint:ok exit status of a child we kill is expected to be non-zero
		close(s.done)
	}()
	if err := s.waitHealthy(ctx); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w\nskylined output:\n%s", err, s.log)
	}
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(healthTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("skylined exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close() //errlint:ok nothing was read from it
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("skylined not healthy on %s after %v", s.base, healthTimeout)
}

// kill SIGKILLs the child and waits until it is gone. Safe to call
// twice; this is both the crash the write_stream workload injects and
// the cleanup every error path runs.
func (s *server) kill() {
	s.cmd.Process.Kill() //errlint:ok "already finished" is the only failure and is fine
	<-s.done
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
