package lint

import (
	"go/ast"
	"sort"
)

// ExportedFuncs returns the names of every exported top-level function
// (methods excluded) whose type matches the predicate, sorted.
func ExportedFuncs(pkg *Package, match func(*ast.FuncType) bool) []string {
	var names []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if match(fd.Type) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}
