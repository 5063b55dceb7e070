package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// artifactDigests pins the SHA-256 of the paper-scale -json artifact per
// seed. A change that alters an artifact on purpose updates these and says
// why in CHANGES.md.
var artifactDigests = map[int64]string{
	1: "7a9e496e02db447a1c2ab561ab7f60dfe9f6a8ab04053bd519367b94ab954a19",
	7: "67a1c3c0259042198feed789bf9b716c277fd220ba7cac92993d189380f8e02f",
}

func TestArtifactJSONPinned(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	for _, seed := range []int64{1, 7} {
		path := filepath.Join(t.TempDir(), "artifacts.json")
		if err := run(seed, 1.0, 20000, "", path, ""); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != artifactDigests[seed] {
			t.Errorf("seed %d: artifact SHA-256 %s, want %s", seed, got, artifactDigests[seed])
		}
	}
}
