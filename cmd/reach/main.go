// Command reach fails when the repository holds a function that no
// binary contains. It builds every main package (cmd/*, examples/*
// and each nested module's, such as bench/) into a temporary
// directory with inlining off, reads each binary's text symbols with
// `go tool nm`, and compares them with every function declared in the
// non-test files that `go list` selects for this platform.
//
// A library function is reached when any binary contains it; a
// function of a main package must be in that package's own binary.
// An unreached function is allowed only when allowlist.txt names it,
// with the reason a test needs it. The command also fails on an
// allowlist entry that a binary now reaches or that no longer exists,
// so the list cannot outlive its reasons.
//
// Blind spot: the linker keeps every method whose name and signature
// match a method called through any interface in the binary, whether
// or not anything calls it. hw.Actuator.Unlock, say, stays linked as
// long as some binary calls sync.Locker's Unlock, so a method can be
// dead yet pass. Grep for the callees a deletion leaves behind.
//
// Usage, from anywhere inside the main module:
//
//	go run ./cmd/reach
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlistText string

func main() {
	problems, summary, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	fmt.Println(summary)
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// decl is one function declared in a non-test file.
type decl struct {
	pos   string // file:line relative to the main module's root
	file  string
	lines int
	// bin names the binary that must hold a main package's function;
	// empty for a library function, which any binary may hold.
	bin string
}

// pkg is one package as `go list` reports it.
type pkg struct {
	path, name, dir string
	files           []string
}

func run() ([]string, string, error) {
	root, err := goOut(".", "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return nil, "", err
	}
	root = strings.TrimSpace(root)
	allow, err := parseAllowlist(allowlistText)
	if err != nil {
		return nil, "", err
	}
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)

	modules, err := moduleDirs(root)
	if err != nil {
		return nil, "", err
	}
	declared := map[string]decl{}
	reached := map[string]bool{}
	for _, mod := range modules {
		pkgs, err := listPackages(mod)
		if err != nil {
			return nil, "", err
		}
		for _, p := range pkgs {
			bin := ""
			if p.name == "main" {
				bin = p.path
			}
			if err := declare(declared, root, p, bin); err != nil {
				return nil, "", err
			}
			if bin == "" {
				continue
			}
			syms, err := buildSymbols(mod, p.path, filepath.Join(tmp, strings.ReplaceAll(p.path, "/", "_")))
			if err != nil {
				return nil, "", err
			}
			for _, line := range strings.Split(syms, "\n") {
				path, name, ok := parseSymbol(line)
				if !ok {
					continue
				}
				if path == "main" {
					path = p.path
				}
				reached[path+"."+name] = true
			}
		}
	}
	problems, summary := audit(declared, reached, allow)
	return problems, summary, nil
}

// moduleDirs returns the main module's root and every directory below
// it that holds a go.mod of its own.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && d.Name() == "go.mod" && filepath.Dir(path) != root {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

func listPackages(mod string) ([]pkg, error) {
	out, err := goOut(mod, "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, pkg{path: f[0], name: f[1], dir: f[2], files: strings.Fields(f[3])})
	}
	return pkgs, nil
}

// declare adds every function with a body in p's files to declared,
// keyed like the names parseSymbol returns. init functions are skipped:
// a linked package always runs them.
func declare(declared map[string]decl, root string, p pkg, bin string) error {
	fset := token.NewFileSet()
	for _, name := range p.files {
		file := filepath.Join(p.dir, name)
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			key := fn.Name.Name
			if fn.Recv != nil {
				key = recvName(fn.Recv.List[0].Type) + "." + key
			}
			start, end := fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
			declared[p.path+"."+key] = decl{
				pos:   fmt.Sprintf("%s:%d", rel, start),
				file:  rel,
				lines: end - start + 1,
				bin:   bin,
			}
		}
	}
	return nil
}

// recvName returns a receiver's type name without pointer or type
// parameters.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", t)
		}
	}
}

// buildSymbols builds the main package path with inlining off, so
// that every called function keeps its own symbol, and returns the
// binary's `go tool nm` listing.
func buildSymbols(mod, path, out string) (string, error) {
	if _, err := goOut(mod, "build", "-gcflags=all=-l", "-o", out, path); err != nil {
		return "", err
	}
	return goOut(mod, "tool", "nm", out)
}

func goOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s (in %s): %w", strings.Join(args, " "), dir, err)
	}
	return string(out), nil
}

// parseSymbol reads one `go tool nm` line and, for a text symbol,
// returns its package path and the key of the declared function it
// belongs to: "F" for a function, "T.M" for a method, whatever the
// receiver's pointerness or type arguments. Closures, go and defer
// wrappers, range-over-func bodies and method values count for the
// function that declares them.
func parseSymbol(line string) (path, name string, ok bool) {
	// "  4a1b20 T cres/internal/scenario.RunCells[go.shape.struct { ... }]":
	// the name is everything after the type column, spaces included.
	f := strings.Fields(line)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", "", false
	}
	sym := stripTypeArgs(strings.SplitN(strings.TrimSpace(line), " "+f[1]+" ", 2)[1])
	dot := strings.LastIndex(sym, "/") + 1
	i := strings.IndexByte(sym[dot:], '.')
	if i < 0 {
		return "", "", false
	}
	path, rest := sym[:dot+i], sym[dot+i+1:]
	parts := strings.Split(rest, ".")
	for j, p := range parts {
		parts[j] = trimWrapper(p)
	}
	if r := parts[0]; strings.HasPrefix(r, "(*") && strings.HasSuffix(r, ")") && len(parts) > 1 {
		return path, r[2:len(r)-1] + "." + parts[1], true
	}
	if len(parts) > 1 && !isClosure(parts[1]) {
		return path, parts[0] + "." + parts[1], true
	}
	return path, parts[0], true
}

// stripTypeArgs drops every bracketed type-argument list.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// trimWrapper drops a method value's "-fm" and a range-over-func
// body's "-rangeN" suffix.
func trimWrapper(s string) string {
	if i := strings.IndexByte(s, '-'); i > 0 {
		return s[:i]
	}
	return s
}

// isClosure reports whether a symbol component names a closure or a
// wrapper the compiler made inside a function: func1, gowrap1,
// deferwrap1, or a nested closure's bare number.
func isClosure(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if strings.HasPrefix(s, p) {
			s = s[len(p):]
			break
		}
	}
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// parseAllowlist reads "key reason..." lines; blank lines and lines
// starting with # are skipped. Every entry needs a reason.
func parseAllowlist(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("allowlist.txt:%d: %s has no reason", i+1, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("allowlist.txt:%d: %s listed twice", i+1, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// audit compares the declared functions with the reached ones and the
// allowlist. It returns one line per problem, sorted, and a summary.
func audit(declared map[string]decl, reached map[string]bool, allow map[string]string) ([]string, string) {
	isReached := func(key string, d decl) bool {
		if d.bin == "" {
			return reached[key]
		}
		// A main package's function must be in its own binary.
		return reached[d.bin+"."+strings.TrimPrefix(key, d.bin+".")]
	}
	var problems []string
	files := map[string]bool{}
	n, lines := 0, 0
	for key, d := range declared {
		if isReached(key, d) {
			if _, ok := allow[key]; ok {
				problems = append(problems, fmt.Sprintf("%s: %s is on the allowlist but a binary reaches it", d.pos, key))
			}
			continue
		}
		n, lines = n+1, lines+d.lines
		files[d.file] = true
		if _, ok := allow[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no binary (%d lines)", d.pos, key, d.lines))
		}
	}
	for key := range allow {
		if _, ok := declared[key]; !ok {
			problems = append(problems, fmt.Sprintf("allowlist.txt: %s is declared nowhere", key))
		}
	}
	sort.Strings(problems)
	summary := fmt.Sprintf("reach: %d functions in %d files (%d lines) are in no binary; %d allowlisted, %d problems",
		n, len(files), lines, len(allow), len(problems))
	return problems, summary
}
