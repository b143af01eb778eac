package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// Each analyzer runs over its fixture tree and must produce exactly the
// diagnostics the `// want "regexp"` comments annotate — a seeded
// violation per banned shape, plus clean shapes that must stay silent.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer   *Analyzer
		suppressed int // justified //lint:allow sites baked into the fixture
	}{
		{Wallclock, 1},
		{Seededrand, 0},
		{Maporder, 1},
		{Goroutine, 0},
		{Obsguard, 0},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.analyzer.Name)
			suppressed, problems, err := CheckFixture(dir, tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Error(p)
			}
			if suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", suppressed, tc.suppressed)
			}
		})
	}
}

// The suppression happy path: every directive form (inline, standalone
// line above, multi-check) suppresses its finding, so the directive
// fixture runs fully clean with all suppressions counted.
func TestDirectivesSuppressAndAreCounted(t *testing.T) {
	suppressed, problems, err := CheckFixture(filepath.Join("testdata", "directive"), Analyzers()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	// Inline + Above + Multi's two sites = four suppressed findings.
	if suppressed != 4 {
		t.Errorf("suppressed = %d, want 4", suppressed)
	}
}

// Directive misuse is itself a finding: unknown check names, missing
// justifications, and directives that suppress nothing all surface, and
// the findings those directives failed to suppress survive.
func TestDirectiveErrors(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "directive-errors"))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, Analyzers())
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0: every directive in the fixture is broken", res.Suppressed)
	}
	wantMsgs := []string{
		`unknown check "warpclock"`,
		"no justification",
		"suppresses nothing",
	}
	for _, want := range wantMsgs {
		found := false
		for _, d := range res.Diags {
			if d.Check == DirectiveCheck && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive error containing %q in:\n%s", want, render(res.Diags))
		}
	}
	// The three wallclock findings the broken directives covered survive
	// unsuppressed (Typo, Bare, Mismatch).
	wall := 0
	for _, d := range res.Diags {
		if d.Check == "wallclock" && !d.Suppressed {
			wall++
		}
	}
	if wall != 3 {
		t.Errorf("unsuppressed wallclock findings = %d, want 3:\n%s", wall, render(res.Diags))
	}
	// Two unused directives: Stale and Mismatch.
	unused := 0
	for _, d := range res.Diags {
		if d.Check == DirectiveCheck && strings.Contains(d.Message, "suppresses nothing") {
			unused++
		}
	}
	if unused != 2 {
		t.Errorf("unused-directive errors = %d, want 2:\n%s", unused, render(res.Diags))
	}
}

func render(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
