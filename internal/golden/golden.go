// Package golden pins test outputs across commits: per-seed run
// signatures as SHA-256 digests in testdata/signatures.golden and
// sample wire frames as hex in testdata/frames.golden, both at the
// repository root so the packages that share a protocol share one
// record. Re-record like the repo's other goldens, with UPDATE_GOLDEN=1
// in the environment (and -p 1 when more than one package is named:
// the files are shared).
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var update = os.Getenv("UPDATE_GOLDEN") != ""

// path resolves a file under the repository's testdata directory from
// this source file's location, so every test package finds the same one.
func path(name string) string {
	_, self, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(self), "..", "..", "testdata", name)
}

// Signature compares the SHA-256 of data with the digest recorded under
// key in testdata/signatures.golden.
func Signature(t testing.TB, key string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	check(t, "signatures.golden", key, hex.EncodeToString(sum[:]))
}

// Frame compares an encoded wire frame, byte for byte, with the hex
// recorded under key in testdata/frames.golden.
func Frame(t testing.TB, key string, frame []byte) {
	t.Helper()
	check(t, "frames.golden", key, hex.EncodeToString(frame))
}

func load(t testing.TB, file string) map[string]string {
	t.Helper()
	recs := map[string]string{}
	raw, err := os.ReadFile(path(file))
	if err != nil {
		if os.IsNotExist(err) && update {
			return recs
		}
		t.Fatalf("golden: %v (record it with UPDATE_GOLDEN=1)", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, " "); ok {
			recs[key] = val
		}
	}
	return recs
}

func check(t testing.TB, file, key, got string) {
	t.Helper()
	if strings.ContainsAny(key, " \n") {
		t.Fatalf("golden: key %q contains whitespace", key)
	}
	recs := load(t, file)
	if !update {
		switch want, ok := recs[key]; {
		case !ok:
			t.Errorf("golden: %s has no record for %s (record it with UPDATE_GOLDEN=1)", file, key)
		case want != got:
			t.Errorf("golden: %s: %s changed:\n got %s\nwant %s", file, key, got, want)
		}
		return
	}
	recs[key] = got
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, recs[k])
	}
	if err := os.WriteFile(path(file), []byte(b.String()), 0o644); err != nil {
		t.Fatalf("golden: %v", err)
	}
}
