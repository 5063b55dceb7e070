package population_test

import (
	"testing"

	"tangledmass/internal/analysis"
	"tangledmass/internal/population"
)

// These tests live outside the package so they can read the headline
// numbers from analysis.ComputeHeadlines, the computation every binary
// prints, rather than from a copy kept in population.

func TestExtendedFraction(t *testing.T) {
	h := analysis.ComputeHeadlines(population.PaperPopulation(t))
	if f := h.ExtendedFraction; f < 0.36 || f > 0.43 {
		t.Errorf("extended-store session fraction = %.3f, want ≈0.39 (§5)", f)
	}
}

func TestRootedFraction(t *testing.T) {
	h := analysis.ComputeHeadlines(population.PaperPopulation(t))
	if f := h.RootedFraction; f < 0.21 || f > 0.27 {
		t.Errorf("rooted session fraction = %.3f, want ≈0.24 (§6)", f)
	}
}

func TestUniqueRootsNearPaper(t *testing.T) {
	h := analysis.ComputeHeadlines(population.PaperPopulation(t))
	if n := h.UniqueRoots; n < 260 || n > 380 {
		t.Errorf("unique root identities = %d, want ≈314 (§4.1)", n)
	}
}

func TestScaledPopulation(t *testing.T) {
	p, err := population.Generate(population.Config{Seed: 1, SessionScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if want := population.ScaledSessions(0.05); p.TotalSessions() != want {
		t.Errorf("scaled sessions = %d, want %d", p.TotalSessions(), want)
	}
	if f := analysis.ComputeHeadlines(p).RootedFraction; f < 0.12 || f > 0.36 {
		t.Errorf("scaled rooted fraction = %.3f, want near 0.24", f)
	}
}
