package prefsky_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prefsky/internal/analysis/skylint"
)

var (
	codeSpan    = regexp.MustCompile("`[^`]*`")
	ruleWord    = regexp.MustCompile(`(?i)\b(must|never|always|exactly)\b`)
	invRef      = regexp.MustCompile(`\((I\d+)\)`)
	sentenceEnd = regexp.MustCompile(`[.!?](\s+|$)`)
	listItem    = regexp.MustCompile(`^(-|\d+\.) `)
)

// TestDesignInvariantChecksExist keeps DESIGN.md a checked contract: every
// check its "Invariant | Check" table names must exist — a pkg:TestName or
// pkg:FuzzName defined in that package's _test.go files, or a skylint
// analyzer — and every other sentence that states a rule with must, never,
// always or exactly must cite a row of the table by its id.
func TestDesignInvariantChecksExist(t *testing.T) {
	rows, prose := readDesign(t)
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no | # | Invariant | Check | table")
	}
	analyzers := map[string]bool{}
	for _, a := range skylint.Suite() {
		analyzers[a.Name] = true
	}
	funcs := map[string]map[string]bool{}
	for id, check := range rows {
		names := codeSpan.FindAllString(check, -1)
		if len(names) == 0 {
			t.Errorf("%s names no check", id)
		}
		for _, name := range names {
			name = strings.Trim(name, "`")
			pkg, fn, ok := strings.Cut(name, ":")
			if !ok {
				if !analyzers[name] {
					t.Errorf("%s: %q is not a skylint analyzer", id, name)
				}
				continue
			}
			if funcs[pkg] == nil {
				funcs[pkg] = testFuncs(t, pkg)
			}
			isCheck := strings.HasPrefix(fn, "Test") || strings.HasPrefix(fn, "Fuzz")
			if !isCheck || !funcs[pkg][fn] {
				t.Errorf("%s: %s is not defined in package %s's tests", id, fn, pkg)
			}
		}
	}
	for _, unit := range prose {
		text := codeSpan.ReplaceAllString(unit, "")
		for _, s := range sentenceEnd.Split(text, -1) {
			if !ruleWord.MatchString(s) {
				continue
			}
			refs := invRef.FindAllStringSubmatch(s, -1)
			if len(refs) == 0 {
				t.Errorf("rule without an invariant id: %q", strings.TrimSpace(s))
			}
			for _, r := range refs {
				if _, ok := rows[r[1]]; !ok {
					t.Errorf("%s cited but not in the table: %q", r[1], strings.TrimSpace(s))
				}
			}
		}
	}
}

// readDesign splits DESIGN.md into the invariant table's rows (id → check
// cell) and the prose units outside it: paragraphs, list items and other
// tables' rows. Code blocks and headings are skipped.
func readDesign(t *testing.T) (map[string]string, []string) {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	var prose []string
	var unit strings.Builder
	flush := func() {
		if unit.Len() > 0 {
			prose = append(prose, unit.String())
			unit.Reset()
		}
	}
	inCode, inTable := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "```"):
			flush()
			inCode = !inCode
		case inCode:
		case line == "| # | Invariant | Check |":
			flush()
			inTable = true
		case strings.HasPrefix(line, "|"):
			flush()
			cells := strings.Split(strings.Trim(line, "|"), "|")
			if !inTable {
				prose = append(prose, line)
			} else if id := strings.TrimSpace(cells[0]); id != "---" {
				if _, dup := rows[id]; dup || len(cells) != 3 {
					t.Errorf("invariant row %q is a duplicate or not three cells", line)
				}
				rows[id] = cells[len(cells)-1]
			}
		case line == "" || strings.HasPrefix(line, "#"):
			flush()
			inTable = false
		default:
			if listItem.MatchString(line) {
				flush()
			}
			unit.WriteString(line + " ")
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, prose
}

// testFuncs returns the top-level functions of the _test.go files of the
// package named pkg: "prefsky" is the module root, any other name the one
// directory of that name under internal/, cmd/ or internal/analysis/ that
// has tests.
func testFuncs(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	var files []string
	if pkg == "prefsky" {
		files, _ = filepath.Glob("*_test.go")
	} else {
		for _, dir := range []string{"internal", "cmd", "internal/analysis"} {
			m, _ := filepath.Glob(filepath.Join(dir, pkg, "*_test.go"))
			if len(m) > 0 && len(files) > 0 {
				t.Errorf("package name %q is ambiguous", pkg)
			}
			files = append(files, m...)
		}
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = true
			}
		}
	}
	return out
}
