package lint

import (
	"fmt"
	"go/types"
)

// testOnlyAnalyzer keeps the internal/ packages' exported surface to
// what the program uses: an exported function, method, type, var or
// const that no non-test file references anywhere in the module is
// either dead or a test helper, and belongs in a _test.go file
// (export_test.go for counters a test reads). References count from
// every package a walk of the module root loads, whatever directories
// premalint was given, so linting one package sees its callers in
// cmd/, examples/, the facade and bench/. Every use counts, a method's
// receiver and a recursive call included: a type only its own methods
// name is flagged once those methods go. A method that makes its type
// satisfy an interface the program declares or imports (fmt.Stringer,
// error, json.Marshaler, types.Importer) is called through that
// interface and is never flagged. Deliberate oracles that only tests
// call keep a reasoned ignore directive naming their caller.
var testOnlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc:  "every exported identifier of an internal/ package is referenced by some non-test file of the module",
	Run:  runTestOnly,
}

func runTestOnly(p *Package) []Finding {
	if !hasPathSegment(p.Path, "internal") || p.Types == nil {
		return nil
	}
	refs, err := p.loader.references(p)
	if err != nil {
		return []Finding{{
			Pos:      p.pos(p.Files[0].Name),
			Analyzer: "testonly",
			Message:  fmt.Sprintf("cannot load the module to count references: %v", err),
		}}
	}
	var out []Finding
	flag := func(obj types.Object, what string) {
		if obj.Exported() && !refs.used[obj] {
			out = append(out, Finding{
				Pos:      p.Fset.Position(obj.Pos()),
				Analyzer: "testonly",
				Message: fmt.Sprintf("exported %s is referenced by no non-test file; "+
					"delete it or move it into a _test.go file", what),
			})
		}
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			flag(obj, "func "+name)
		case *types.Var:
			flag(obj, "var "+name)
		case *types.Const:
			flag(obj, "const "+name)
		case *types.TypeName:
			flag(obj, "type "+name)
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !refs.satisfiesInterface(named, m) {
					flag(m, "method "+name+"."+m.Name())
				}
			}
		}
	}
	return out
}

// refIndex is the module-wide reference set the testonly analyzer
// consults: every object some non-test file uses, and the interfaces
// whose methods a value may be called through without naming them.
type refIndex struct {
	used    map[types.Object]bool
	ifaces  []*types.Interface
	indexed map[*Package]bool
}

// references returns the loader's reference index, built on first use
// from a walk of the whole module and extended with p when p lies
// outside that walk (a testdata fixture named explicitly).
func (l *Loader) references(p *Package) (*refIndex, error) {
	if l.refs == nil {
		pkgs, err := l.Walk(l.ModRoot)
		if err != nil {
			return nil, err
		}
		l.refs = &refIndex{
			used:    map[types.Object]bool{},
			ifaces:  []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
			indexed: map[*Package]bool{},
		}
		for _, q := range pkgs {
			l.refs.add(q)
		}
	}
	l.refs.add(p)
	return l.refs, nil
}

// add records one package's uses and the interfaces it declares or
// imports.
func (r *refIndex) add(p *Package) {
	if r.indexed[p] || p.Types == nil {
		return
	}
	r.indexed[p] = true
	for _, obj := range p.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a generic type's method is used through its instances
		}
		r.used[obj] = true
	}
	r.addInterfaces(p.Types, false)
	for _, imp := range p.Types.Imports() {
		r.addInterfaces(imp, true)
	}
}

// addInterfaces records the method-set interfaces a package declares
// (only exported ones when it is merely imported).
func (r *refIndex) addInterfaces(pkg *types.Package, exportedOnly bool) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || (exportedOnly && !tn.Exported()) {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
			r.ifaces = append(r.ifaces, iface)
		}
	}
}

// satisfiesInterface reports whether method m is one of the methods by
// which t or *t implements an interface the program knows.
func (r *refIndex) satisfiesInterface(t *types.Named, m *types.Func) bool {
	ptr := types.NewPointer(t)
	for _, iface := range r.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(t, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}
