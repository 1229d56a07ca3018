// Command skylined serves skyline indexes over HTTP/JSON — the
// network front end of the repository (docs/API.md documents the wire
// protocol; internal/serve implements it).
//
// Usage:
//
//	skylined -config skylined.json [-listen :8787]
//
// The config file is an internal/serve.Config: a map of namespaces —
// each one core.DB with its own options (shards, mirrors, cache,
// async queue, durable directory) — plus the serving knobs
// (snapshot_ttl_ms, measure_io). A field the config does not define is
// an error, so a stale or misspelled option fails the load instead of
// being ignored. Minimal example:
//
//	{
//	  "listen": ":8787",
//	  "namespaces": {
//	    "demo": {"shards": 4, "workers": 4, "cache_entries": 256,
//	             "async_writes": true, "max_buffered": 8, "shed_writes": true}
//	  }
//	}
//
// Shutdown is graceful: on SIGINT/SIGTERM the listener stops accepting
// and in-flight requests finish (http.Server.Shutdown), then every
// namespace is closed — async queues drain, durable ones checkpoint —
// so a client that got a 200 never loses that write to a graceful
// restart. Admission control is the engine's, surfaced: 429 +
// Retry-After when the async queue sheds, 503 read-only when a fatal
// storage error degrades a namespace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		flagConfig = flag.String("config", "", "path to the JSON config (required)")
		flagListen = flag.String("listen", "", "listen address (overrides the config's)")
	)
	flag.Parse()
	if err := run(*flagConfig, *flagListen); err != nil {
		fmt.Fprintf(os.Stderr, "skylined: %v\n", err)
		os.Exit(1)
	}
}

func run(configPath, listen string) error {
	if configPath == "" {
		return fmt.Errorf("-config is required")
	}
	cfg, err := loadConfig(configPath)
	if err != nil {
		return err
	}
	if listen != "" {
		cfg.Listen = listen
	}
	if cfg.Listen == "" {
		cfg.Listen = ":8787"
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: cfg.Listen, Handler: srv.Handler()}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("skylined: serving %d namespace(s) on %s\n", len(cfg.Namespaces), cfg.Listen)

	select {
	case sig := <-sigc:
		fmt.Printf("skylined: %v: draining\n", sig)
	case err := <-errc:
		srv.Close() //errlint:ok listener already failed; best-effort cleanup before reporting it
		return err
	}

	// Shutdown ordering matters: stop ADMITTING first (Shutdown waits
	// out in-flight requests), close the namespaces SECOND (drain +
	// checkpoint) — the other order would drop acknowledged writes
	// still sitting in a handler.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "skylined: shutdown: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("closing namespaces: %w", err)
	}
	fmt.Println("skylined: drained and checkpointed")
	return nil
}

// loadConfig reads the JSON config at path, refusing unknown fields.
func loadConfig(path string) (serve.Config, error) {
	var cfg serve.Config
	blob, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("parsing %s: %w", path, err)
	}
	return cfg, nil
}
