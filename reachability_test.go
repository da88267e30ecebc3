package esrp_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"testing"
)

// entryLine is one allowlist entry: file, function (methods as
// Recv.Method), two spaces, category, colon, reason.
var entryLine = regexp.MustCompile(`^(\S+) (\S+)  (reference|error-path|platform|public-api): \S`)

// TestReachabilityAllowlistIsCurrent checks the form of
// testdata/reachability.txt, the functions no entry point reaches:
// every entry names a function that exists, uses one of the four
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
