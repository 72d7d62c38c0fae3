package ecgraph

// The link gate. Go lets only this module import internal/, so a function
// under internal/ that none of the module's main packages links can run only
// in tests. TestInternalFuncsLinked builds every main package without
// inlining, reads the linked symbols with `go tool nm`, and fails on any
// function declared under internal/ that no binary links, unless
// testdata/unlinked.txt lists it because another package's tests call it.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const module = "ecgraph"

// declaredFunc is one func or method declared in a non-test file.
type declaredFunc struct {
	key string // import path, receiver type if any, name: ecgraph/internal/tensor.Matrix.At
	pos string // file:line
}

// declaredFuncs returns the funcs and methods declared under dir, a directory
// relative to the module root (the working directory of this package's
// tests), in the non-test files that ctx builds. init functions and blank
// names are left out: no code can refer to them.
func declaredFuncs(ctx build.Context, dir string) ([]declaredFunc, error) {
	var out []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := ctx.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			key := pkg + "."
			if fn.Recv != nil {
				key += recvTypeName(fn.Recv.List[0].Type) + "."
			}
			pos := fmt.Sprintf("%s:%d", filepath.ToSlash(path), fset.Position(fn.Pos()).Line)
			out = append(out, declaredFunc{key + fn.Name.Name, pos})
		}
		return nil
	})
	return out, err
}

// recvTypeName is a receiver's base type name: T for T, *T, T[E] and *T[E].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

var closureName = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// linkedKey maps a symbol `go tool nm` prints to the key of the declaration it
// was compiled from, in declaredFunc's spelling. ok is false for symbols
// outside the module, compiler-generated ones (..dict, ..stmp, type
// descriptors), closures (F.func1, T.M.func1.2) and init.N. Assembly
// functions carry an .abi0 suffix, generic instantiations a bracketed shape
// list, and pointer-receiver methods a (*T) receiver; all three fold onto
// the plain key.
func linkedKey(sym string) (key string, ok bool) {
	if !strings.HasPrefix(sym, module+"/") {
		return "", false
	}
	sym = strings.TrimSuffix(sym, ".abi0")
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = b.String()
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash:], '.')
	if dot < 0 {
		return "", false
	}
	pkg, rest := sym[:slash+dot], sym[slash+dot+1:]
	if strings.HasPrefix(rest, "(*") {
		rest = strings.Replace(rest[2:], ")", "", 1)
	}
	parts := strings.Split(rest, ".")
	switch {
	case parts[0] == "" || strings.ContainsAny(rest, "-()"):
		return "", false // ..dict.F, ..stmp_0, method-value and range-func wrappers
	case len(parts) > 2 || (len(parts) == 2 && closureName.MatchString(parts[1])):
		return "", false // F.func1, F.gowrap1, init.0, T.M.func1.2
	}
	return pkg + "." + rest, true
}

// allowEntry is one line of testdata/unlinked.txt: an unlinked function and
// the packages whose tests call it.
type allowEntry struct {
	key  string
	pkgs []string
	line int
}

func readAllowlist(path string) ([]allowEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []allowEntry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %s names no package whose tests call it", path, n, fields[0])
		}
		out = append(out, allowEntry{fields[0], fields[1:], n})
	}
	return out, sc.Err()
}

// testsMention reports whether a _test.go file in dir names ident.
func testsMention(dir, ident string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	word := regexp.MustCompile(`\b` + regexp.QuoteMeta(ident) + `\b`)
	for _, f := range files {
		if src, err := os.ReadFile(f); err == nil && word.Match(src) {
			return true
		}
	}
	return false
}

// linkedSymbols builds every main package of the module into a temporary
// directory without inlining, so a function that is called shows up as its
// own symbol, and returns the keys of all module symbols the binaries hold.
func linkedSymbols(t *testing.T) map[string]bool {
	list, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(list))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(mains) {
		t.Fatalf("built %d binaries for %d main packages", len(entries), len(mains))
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "  addr T name"; a name may hold spaces inside its brackets.
			fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(fields) < 3 {
				continue
			}
			if key, ok := linkedKey(fields[2]); ok {
				linked[key] = true
			}
		}
	}
	t.Logf("%d main packages link %d symbols of the module", len(mains), len(linked))
	return linked
}

// TestInternalFuncsLinked is the link gate: every function declared under
// internal/ for this platform is linked into some main package of the module,
// or testdata/unlinked.txt lists it with the packages whose tests call it.
// Each list entry must still be declared, unlinked and named by those tests.
func TestInternalFuncsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	decls, err := declaredFuncs(build.Default, "internal")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join("testdata", "unlinked.txt"))
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedSymbols(t)

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
	}
	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.key] = true
		switch {
		case !declared[a.key]:
			t.Errorf("testdata/unlinked.txt:%d: %s is declared nowhere under internal/; delete the entry", a.line, a.key)
		case linked[a.key]:
			t.Errorf("testdata/unlinked.txt:%d: %s is linked now; delete the entry", a.line, a.key)
		}
		name := a.key[strings.LastIndexByte(a.key, '.')+1:]
		for _, p := range a.pkgs {
			switch {
			case strings.HasPrefix(a.key, module+"/"+p+"."):
				t.Errorf("testdata/unlinked.txt:%d: %s names its own package %s; a function only its own tests call belongs in a _test.go file", a.line, a.key, p)
			case !testsMention(p, name):
				t.Errorf("testdata/unlinked.txt:%d: no test in %s names %s", a.line, p, name)
			}
		}
	}
	for _, d := range decls {
		if !linked[d.key] && !allowed[d.key] {
			t.Errorf("%s: %s is linked into no binary: delete it, move it into a _test.go file, or list it in testdata/unlinked.txt with the packages whose tests call it", d.pos, d.key)
		}
	}
}

// TestLinkedKey pins linkedKey's mapping from `go tool nm` spellings onto
// declaration keys; it builds nothing, so it runs under -short too.
func TestLinkedKey(t *testing.T) {
	const x = "ecgraph/internal/x."
	for sym, want := range map[string]string{
		x + "F":                   x + "F",
		x + "T.M":                 x + "T.M",
		x + "(*T).M":              x + "T.M",
		x + "F[go.shape.float32]": x + "F",
		x + "T[go.shape.int].M":   x + "T.M",
		x + "(*T[go.shape.int,go.shape.*ecgraph/internal/y.U]).M": x + "T.M",
		"ecgraph/internal/tensor.cpuid.abi0":                      "ecgraph/internal/tensor.cpuid",
		// Ignored: closures, init.N, map initialisers, method values,
		// compiler-generated and foreign symbols.
		x + "F.func1":                   "",
		x + "(*T).M.func2.1":            "",
		x + "F.deferwrap1":              "",
		x + "F.gowrap1":                 "",
		x + "init.0":                    "",
		x + "map.init.0":                "",
		x + "(*T).M-fm":                 "",
		x + ".inittask":                 "",
		x + ".dict.F[go.shape.int]":     "",
		x + ".typeAssert.0":             "",
		"type:.eq.ecgraph/internal/x.T": "",
		"runtime.main":                  "",
	} {
		got, ok := linkedKey(sym)
		if ok != (want != "") || got != want {
			t.Errorf("linkedKey(%q) = %q, %v; want %q", sym, got, ok, want)
		}
	}
}

// TestDeclaredFuncsFollowBuildConstraints checks that declaredFuncs reads
// only the files a platform builds, and that the tensor package's assembly
// stubs, whose symbols carry .abi0, map onto their declarations.
func TestDeclaredFuncsFollowBuildConstraints(t *testing.T) {
	files := func(goarch string) map[string]bool {
		ctx := build.Default
		ctx.GOARCH = goarch
		decls, err := declaredFuncs(ctx, filepath.Join("internal", "tensor"))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, d := range decls {
			seen[d.pos[:strings.LastIndexByte(d.pos, ':')]] = true
			seen[d.key] = true
		}
		return seen
	}
	amd64, arm64 := files("amd64"), files("arm64")
	if amd64["internal/tensor/axpy_generic.go"] || !amd64["internal/tensor/axpy_amd64.go"] {
		t.Errorf("amd64 must read axpy_amd64.go and not axpy_generic.go")
	}
	if !arm64["internal/tensor/axpy_generic.go"] || arm64["internal/tensor/axpy_amd64.go"] {
		t.Errorf("arm64 must read axpy_generic.go and not axpy_amd64.go")
	}
	for _, stub := range []string{"cpuid", "xgetbv", "axpyGatherAVX2"} {
		key, ok := linkedKey("ecgraph/internal/tensor." + stub + ".abi0")
		if !ok || !amd64[key] {
			t.Errorf("assembly stub %s: key %q (ok %v) is not an amd64 declaration", stub, key, ok)
		}
	}
}
