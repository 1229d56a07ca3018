package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadConfigRefusesUnknownFields: a config naming a field serve.Config
// does not define — here options that no longer exist — fails to load
// instead of being silently ignored, and a config of known fields loads.
func TestLoadConfigRefusesUnknownFields(t *testing.T) {
	for _, tc := range []struct {
		name, blob, want string
	}{
		{"server-field", `{"batch_window_us": 200, "namespaces": {"a": {}}}`, "batch_window_us"},
		{"namespace-field", `{"namespaces": {"a": {"shards": 4, "rebalance": true, "max_shard_skew": 2}}}`, "max_shard_skew"},
		{"known", `{"snapshot_ttl_ms": 50, "namespaces": {"a": {"shards": 4, "rebalance": true}}}`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "skylined.json")
			if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg, err := loadConfig(path)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("known fields refused: %v", err)
				}
				if cfg.SnapshotTTLMS != 50 || !cfg.Namespaces["a"].Rebalance {
					t.Fatalf("loaded %+v", cfg)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadConfig = %v, want a refusal naming %q", err, tc.want)
			}
		})
	}
}
