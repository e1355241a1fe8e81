package skyserver

// Documentation gates, run by the CI docs job (and by every plain
// `go test ./...`): intra-repo markdown links must resolve, and the
// packages whose APIs contributors program against — internal/sched and
// internal/sqlengine — must document every exported identifier in the
// form `go vet`, golint and revive's exported rule expect.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"skyserver/internal/schema"
	"skyserver/internal/storage"
	"skyserver/internal/web"
)

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails on intra-repository markdown links whose
// target file does not exist. External links (with a URL scheme) and
// pure in-page anchors are out of scope — this guards against the docs
// drifting from the tree, not against the internet.
func TestMarkdownLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		// SNIPPETS.md quotes exemplar files from other repositories
		// verbatim, including their relative links; it is reference
		// material, not part of this repo's doc graph.
		if strings.HasSuffix(path, ".md") && path != "SNIPPETS.md" {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found; is the test running at the repo root?")
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" { // in-page anchor
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[0], resolved)
			}
		}
	}
	t.Logf("checked %d markdown files", len(mdFiles))
}

// TestEndpointDocCoverage fails when a route the web server registers is
// missing from docs/ops.md — every endpoint the server exposes (including
// the status/health surface) must be in the operations reference. The
// routes come from the server itself, not from scraping its source, so
// table-driven registration cannot slip past. The home page "/" is exempt.
func TestEndpointDocCoverage(t *testing.T) {
	sdb, err := schema.Build(storage.NewMemFileGroup(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	srv := web.NewServer(sdb, web.Options{JobsDir: t.TempDir()})
	defer srv.Close()
	ops, err := os.ReadFile("docs/ops.md")
	if err != nil {
		t.Fatal(err)
	}
	routes := srv.Routes()
	if len(routes) < 5 {
		t.Fatalf("server reports only %d routes", len(routes))
	}
	for _, pattern := range routes {
		// Method-qualified patterns ("GET /api/v1/jobs") are documented
		// in that same form.
		if pattern != "/" && !strings.Contains(string(ops), pattern) {
			t.Errorf("route %q is registered by internal/web but undocumented in docs/ops.md", pattern)
		}
	}
	t.Logf("checked %d routes against docs/ops.md", len(routes))
}

// docPackages are the packages held to full exported-doc coverage (the
// CI docs job also runs golangci-lint's revive exported rule over
// exactly these paths, via .golangci-docs.yml).
var docPackages = []string{"internal/sched", "internal/sqlengine"}

// TestExportedDocComments enforces what revive's exported rule checks:
// every exported top-level identifier — and every exported method on an
// exported type — carries a doc comment that starts with the
// identifier's name (an optional leading article is allowed, as in
// golint).
func TestExportedDocComments(t *testing.T) {
	for _, dir := range docPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for fname, f := range pkg.Files {
				for _, decl := range f.Decls {
					checkDecl(t, fset, fname, decl)
				}
			}
		}
	}
}

func checkDecl(t *testing.T, fset *token.FileSet, fname string, decl ast.Decl) {
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fname + ":" + itoa(p.Line)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		// Methods count only when their receiver type is exported,
		// matching revive's default.
		if d.Recv != nil && !exportedReceiver(d.Recv) {
			return
		}
		checkComment(t, pos(d), "func", d.Name.Name, d.Doc)
	case *ast.GenDecl:
		blockDoc := d.Doc.Text() != ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if s.Doc.Text() != "" {
					checkComment(t, pos(s), "type", s.Name.Name, s.Doc)
				} else if len(d.Specs) == 1 && blockDoc {
					checkComment(t, pos(s), "type", s.Name.Name, d.Doc)
				} else {
					t.Errorf("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					// A documented block covers its members (grouped
					// consts/vars); a lone spec must name itself.
					if !blockDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
						t.Errorf("%s: exported value %s has no doc comment", pos(n), n.Name)
					}
				}
			}
		}
	}
}

func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

func checkComment(t *testing.T, pos, kind, name string, doc *ast.CommentGroup) {
	text := doc.Text()
	if text == "" {
		t.Errorf("%s: exported %s %s has no doc comment", pos, kind, name)
		return
	}
	if strings.HasPrefix(text, "Deprecated:") {
		return
	}
	for _, article := range []string{"", "A ", "An ", "The "} {
		if strings.HasPrefix(text, article+name+" ") || strings.HasPrefix(text, article+name+"'") {
			return
		}
	}
	t.Errorf("%s: comment on exported %s %s should be of the form %q", pos, kind, name, name+" ...")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
