package intinfer

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain points the tile-autotune cache at a temporary directory, so
// plan builds in these tests neither write under the home directory nor
// read picks an earlier run left there.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "trq-autotune-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if err := os.Setenv("TRQ_AUTOTUNE_CACHE", filepath.Join(dir, "autotune.json")); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}
