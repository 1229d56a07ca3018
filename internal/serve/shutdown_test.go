package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emio"
	"repro/internal/geom"
	"repro/internal/load"
)

// Graceful-shutdown harness: a child process (this test binary
// re-executed with SKYLINED_SHUTDOWN_DIR set) serves a durable async
// namespace over a real listener and implements exactly cmd/skylined's
// SIGTERM ordering — stop accepting, drain in-flight requests, Close
// (drain + checkpoint). The parent loads it over HTTP, records every
// acknowledged write, SIGTERMs it mid-steam, waits for a clean exit,
// reopens the directory cold and proves no acknowledged write was
// lost.

const (
	shutdownDirEnv  = "SKYLINED_SHUTDOWN_DIR"
	shutdownAddrEnv = "SKYLINED_SHUTDOWN_ADDRFILE"
)

// TestShutdownChild is the child half; a no-op in a normal run.
func TestShutdownChild(t *testing.T) {
	dir := os.Getenv(shutdownDirEnv)
	if dir == "" {
		t.Skip("graceful-shutdown child; driven by TestGracefulShutdownNoLostAcks")
	}
	srv, err := New(Config{Namespaces: map[string]NamespaceConfig{
		"d": {B: 32, M: 32 * 32, Dir: dir,
			AsyncWrites: true, FlushPoints: 64, FlushIntervalMS: -1},
	}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(3)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "child listen: %v\n", err)
		os.Exit(3)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //errlint:ok Serve returns ErrServerClosed on the Shutdown below

	// Publish the picked port, atomically (write + rename).
	addrFile := os.Getenv(shutdownAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		os.Exit(3)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		os.Exit(3)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	<-sigc
	// cmd/skylined's ordering: stop admitting and wait out in-flight
	// requests first, close the namespaces second.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "child shutdown: %v\n", err)
		os.Exit(4)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "child close: %v\n", err)
		os.Exit(4)
	}
	os.Exit(0)
}

func TestGracefulShutdownNoLostAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestShutdownChild$")
	cmd.Env = append(os.Environ(),
		shutdownDirEnv+"="+filepath.Join(dir, "db"),
		shutdownAddrEnv+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	defer cmd.Process.Kill() //errlint:ok belt-and-braces if an assert fails first

	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if blob, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(blob))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Write-heavy sequential load (conc 1 keeps the client's op order
	// the server's op order, so the acknowledged set is exact). The
	// SIGTERM lands mid-stream: ops still in flight either complete —
	// Shutdown waits them out, so their acks are binding — or fail
	// fast against the closed listener and never count.
	type loadOut struct {
		res *load.Result
		err error
	}
	loadc := make(chan loadOut, 1)
	go func() {
		res, err := load.Run(load.Config{
			BaseURL:   "http://" + addr,
			Namespace: "d",
			Ops:       4000,
			Conc:      1,
			ReadFrac:  0.25,
			Span:      1 << 16,
			Seed:      71,
		})
		loadc <- loadOut{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling child: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child exited dirty: %v", err)
	}
	out := <-loadc
	if out.err != nil {
		t.Fatalf("load: %v", out.err)
	}
	res := out.res
	t.Logf("load: %d ops acked (%d inserts, %d deletes), %d failed after drain began (%d inserts, %d deletes with unknown outcome)",
		res.Ops-res.Errors, res.Inserts, res.Deletes, res.Errors, len(res.InsUnknown), len(res.DelUnknown))
	if res.Inserts == 0 {
		t.Fatal("no insert was acknowledged before the SIGTERM; the test proved nothing")
	}

	// Reopen cold: every acknowledged write must have survived. (The
	// index may also hold writes whose 200 was cut off by the drain —
	// extras are allowed, losses are not.) A delete whose reply was lost
	// with no status may have been applied, so its target may be absent.
	want := res.Expected()
	for _, p := range res.DelUnknown {
		delete(want, p)
	}
	re, err := core.Open(core.Options{Machine: emio.Config{B: 32, M: 32 * 32},
		Dynamic: true, Dir: filepath.Join(dir, "db")}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() //errlint:ok read-only reopen in a test
	lost := 0
	for p := range want {
		hit := re.RangeSkyline(geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y})
		if len(hit) != 1 || hit[0] != p {
			lost++
			t.Errorf("acknowledged insert %v lost across graceful shutdown", p)
		}
	}
	if lost == 0 && re.Len() < len(want) {
		t.Errorf("reopened index has %d points, fewer than %d acknowledged", re.Len(), len(want))
	}
}
