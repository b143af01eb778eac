package lint

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// fixtureWantRe matches a `// want "regexp"` expectation comment in a
// testdata fixture: the line it sits on must produce an unsuppressed
// diagnostic whose message matches the pattern.
var fixtureWantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

// CheckFixture loads the fixture tree at root, a miniature module with its
// own go.mod (module path "fixture"), and runs the analyzers over it,
// diffing produced diagnostics against the fixtures' `// want "regexp"`
// comments. It
// returns the number of suppressed findings (so directive tests can assert
// suppressions landed) and a list of mismatches; an empty problems list
// means the fixture behaved exactly as annotated.
func CheckFixture(root string, analyzers ...*Analyzer) (suppressed int, problems []string, err error) {
	pkgs, err := LoadModule(root)
	if err != nil {
		return 0, nil, err
	}
	res := Run(pkgs, analyzers)

	type want struct {
		re      *regexp.Regexp
		raw     string
		line    int
		file    string
		matched bool
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := fixtureWantRe.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.Contains(c.Text, "// want ") {
							pos := pkg.Fset.Position(c.Pos())
							return 0, nil, fmt.Errorf("lint: malformed want comment at %s:%d: %s", pos.Filename, pos.Line, c.Text)
						}
						continue
					}
					raw, err := strconv.Unquote(m[1])
					if err != nil {
						return 0, nil, err
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						return 0, nil, fmt.Errorf("lint: bad want pattern %q: %w", raw, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{re: re, raw: raw, line: pos.Line, file: pos.Filename})
				}
			}
		}
	}

	for _, d := range res.Diags {
		if d.Suppressed {
			suppressed++
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			problems = append(problems, "unexpected diagnostic: "+d.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.raw))
		}
	}
	return suppressed, problems, nil
}
