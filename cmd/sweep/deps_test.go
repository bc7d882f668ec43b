package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoNetworkDeps guards the start-up weight of the two local binaries.
// Linking net makes a default (CGO_ENABLED=1) build dynamically linked
// against libc and more than doubles the binary, and every warm sweep pays
// for that at process start. Code that talks to a daemon belongs in
// `streamlined submit` (cmd/streamlined and internal/daemon).
func TestNoNetworkDeps(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", "streamline/cmd/sweep", "streamline/cmd/streamline").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net" || pkg == "runtime/cgo" {
			t.Errorf("cmd/sweep or cmd/streamline depends on %s; network code belongs in `streamlined submit` (cmd/streamlined, internal/daemon), not in the local binaries", pkg)
		}
	}
}
