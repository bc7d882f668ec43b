package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// pgoMains are the main packages built with profile-guided optimisation.
// The Go toolchain picks up each package's own default.pgo (-pgo=auto), so
// one profile must be committed once per package.
var pgoMains = []string{"bench", "streamline", "sweep", "streamlined"}

// TestPGOProfilesIdentical checks that every profile-guided binary is built
// from the same profile. A copy that drifts (regenerated in one place only)
// would make the binaries perfbench and CI time disagree with the one the
// profile was measured on.
func TestPGOProfilesIdentical(t *testing.T) {
	var want []byte
	for _, m := range pgoMains {
		path := filepath.Join("..", m, "default.pgo")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing profile: %v", err)
		}
		// pprof profiles are gzip-compressed protobufs.
		if !bytes.HasPrefix(got, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: not a gzip-compressed pprof profile", path)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s differs from cmd/%s/default.pgo; regenerate once and copy it to every main package", path, pgoMains[0])
		}
	}
}
