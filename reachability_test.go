package esrp_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// entryLine is one allowlist entry: file, function (methods as
// Recv.Method), two spaces, category, colon, reason.
var entryLine = regexp.MustCompile(`^(\S+) (\S+)  (reference|error-path|platform): \S`)

// TestReachabilityAllowlistIsCurrent checks the form of
// testdata/reachability.txt, the functions no entry point reaches:
// every entry names a function that exists, uses one of the three
// categories, and the list is sorted without duplicates. Whether the list
// equals what the entry points leave unreached is scripts/reachability.sh
// -check, which builds and drives them.
func TestReachabilityAllowlistIsCurrent(t *testing.T) {
	f, err := os.Open("testdata/reachability.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := map[string]map[string]bool{} // file → declared functions
	declared := func(file string) map[string]bool {
		if fs, ok := funcs[file]; ok {
			return fs
		}
		fs := map[string]bool{}
		funcs[file] = fs
		src, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			return fs // every entry of the file is then reported missing
		}
		for _, d := range src.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fs[receiverName(fd)+fd.Name.Name] = true
			}
		}
		return fs
	}
	prev, entries := "", 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		m := entryLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: %q is not `file Func  category: reason` with a known category", n, line)
			continue
		}
		entries++
		if key := m[1] + " " + m[2]; key <= prev {
			t.Errorf("line %d: %s is out of order or a duplicate (after %s)", n, key, prev)
		} else {
			prev = key
		}
		if !declared(m[1])[m[2]] {
			t.Errorf("line %d: %s declares no function %s", n, m[1], m[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("the allowlist has no entries")
	}
}

// receiverName returns "Recv." for a method and "" for a function.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

// TestCIBenchPatternsMatch checks that every -bench pattern of
// .github/workflows/ci.yml selects something: the first level of each
// top-level alternative must match a Benchmark function the step's packages
// declare. A stale pattern would let the step pass while it runs nothing.
func TestCIBenchPatternsMatch(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := regexp.MustCompile(`-bench='?([^' ]+)'?(.*)`).FindAllStringSubmatch(string(ci), -1)
	if len(steps) == 0 {
		t.Fatal("ci.yml runs no -bench step")
	}
	for _, m := range steps { // the pattern, then the rest of its line
		var pkgs, benches []string
		for _, arg := range strings.Fields(m[2]) {
			if strings.HasPrefix(arg, ".") {
				pkgs, benches = append(pkgs, arg), append(benches, benchmarks(t, arg)...)
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			first, _, _ := strings.Cut(alt, "/")
			if re, err := regexp.Compile(first); err != nil || !slices.ContainsFunc(benches, re.MatchString) {
				t.Errorf("-bench=%s: alternative %q matches no benchmark in %v", m[1], alt, pkgs)
			}
		}
	}
}

// benchmarks returns the Benchmark functions declared in the *_test.go
// files of a go test package argument ("dir/..." walks every package).
func benchmarks(t *testing.T, pkg string) (names []string) {
	root, all := strings.CutSuffix(pkg, "/...")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (!all || d.Name() == "testdata" || d.Name()[0] == '.'):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range src.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Benchmark") {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}
