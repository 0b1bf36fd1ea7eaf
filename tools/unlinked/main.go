// Command unlinked reports the functions declared in internal/ non-test
// files that no binary of the repository links.
//
// It builds every binary (cmd/*, examples/* and the nested benchmark
// module) with inlining disabled, so a function the linker keeps shows up
// as a symbol even when every call site would have inlined it. It reads
// the symbols with `go tool nm` and diffs them against the function and
// method declarations that go/ast finds under internal/. Package init
// functions (init.0, init.1, …), generic instantiations and the
// value/pointer receiver forms of a method all count as linked.
//
// Run it from the repository root:
//
//	go run ./tools/unlinked        # totals
//	go run ./tools/unlinked -v     # plus one line per unlinked function
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// module is the import path of the repository's root module.
const module = "geostreams"

// binary is one main package to build: dir is the module directory the
// build runs in, pkg the package path relative to it.
type binary struct{ dir, pkg string }

func main() {
	verbose := flag.Bool("v", false, "list every unlinked function")
	flag.Parse()
	if err := run(*verbose); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run(verbose bool) error {
	bins, err := binaries()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "unlinked-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	for i, b := range bins {
		out := filepath.Join(tmp, fmt.Sprintf("bin%d", i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, b.pkg)
		build.Dir = b.dir
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s/%s: %w", b.dir, b.pkg, err)
		}
		if err := readSymbols(out, linked); err != nil {
			return err
		}
	}

	decls, err := declarations("internal")
	if err != nil {
		return err
	}
	var unlinked []decl
	lines := 0
	for _, d := range decls {
		if !linked[d.key] {
			unlinked = append(unlinked, d)
			lines += d.lines
		}
	}
	fmt.Printf("unlinked functions in internal/: %d (%d lines) across %d binaries\n",
		len(unlinked), lines, len(bins))
	if verbose {
		for _, d := range unlinked {
			fmt.Printf("  %s:%d\t%s\t%d lines\n", d.file, d.line, d.name, d.lines)
		}
	}
	return nil
}

// binaries lists the main packages: every directory under cmd/ and
// examples/, plus the benchmark module.
func binaries() ([]binary, error) {
	var bins []binary
	for _, root := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				bins = append(bins, binary{dir: ".", pkg: "./" + root + "/" + e.Name()})
			}
		}
	}
	return append(bins, binary{dir: "benchmark", pkg: "."}), nil
}

// generic matches the type arguments of an instantiated symbol.
var generic = regexp.MustCompile(`\[[^\[\]]*\]`)

// readSymbols adds the normalised key of every text symbol of the
// module's packages in bin to linked.
func readSymbols(bin string, linked map[string]bool) error {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Errorf("nm %s: %w", bin, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		for _, key := range symbolKeys(f[2]) {
			linked[key] = true
		}
	}
	return sc.Err()
}

// symbolKeys maps a linker symbol to the declaration keys it proves
// linked. "geostreams/internal/geom.(*Rect).Area" gives
// "geostreams/internal/geom.Rect.Area". A symbol "pkg.A.B" is either the
// value-receiver method A.B or something nested in function A (a closure
// A.func1, a deferwrap, init.0), so it gives both "pkg.A" and "pkg.A.B";
// a type and a function never share a name, so the extra key is harmless.
func symbolKeys(sym string) []string {
	if !strings.HasPrefix(sym, module+"/internal/") {
		return nil
	}
	for generic.MatchString(sym) {
		sym = generic.ReplaceAllString(sym, "")
	}
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash:], ".")
	if dot < 0 {
		return nil
	}
	pkg, parts := sym[:slash+dot], strings.Split(sym[slash+dot+1:], ".")
	if strings.HasPrefix(parts[0], "(") {
		recv := strings.TrimSuffix(strings.TrimPrefix(parts[0], "(*"), ")")
		if len(parts) < 2 {
			return nil
		}
		return []string{pkg + "." + recv + "." + strings.TrimSuffix(parts[1], "-fm")}
	}
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+strings.TrimSuffix(parts[1], "-fm"))
	}
	return keys
}

// decl is one function or method declared in a non-test file.
type decl struct {
	key, name, file string
	line, lines     int
}

// declarations parses every non-test Go file under root.
func declarations(root string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls = append(decls, decl{
				key: pkg + "." + name, name: name, file: path,
				line: start.Line, lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].file != decls[j].file {
			return decls[i].file < decls[j].file
		}
		return decls[i].line < decls[j].line
	})
	return decls, err
}

// recvName strips the pointer and type parameters from a receiver type.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", t)
		}
	}
}
