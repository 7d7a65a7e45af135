// Driver-test package for the fact layer: the call-site index test
// (facts_test.go) counts the sites of these declarations, and the
// constant-resolver test folds the strings reaching sink.
package facts

// Direct calls in function bodies: A → B → C.
func A() { B() }

func B() { C() }

func C() {}

type S struct{}

func (s S) M() {}

// A method call is a site; a method value is not.
func UsesMethodValue() {
	var s S
	s.M()
	f := s.M
	_ = f
}

// A call inside a func literal is a site like any other.
func UsesLiteral() {
	f := func() { C() }
	f()
}

// So is a call in a package-level initializer.
var initCall = seed()

func seed() int { return 1 }

// ---- constant-resolver shapes ----

const prefix = "golden_"

const full = prefix + "name"

// A var with a single literal-ish initializer folds like a constant...
var indirect = full

// ...unless it is assigned anywhere in the module.
var reassigned = "first"

func clobber() { reassigned = "second" }

func sink(vals ...string) {}

func uses() {
	sink(full, indirect, reassigned, prefix+"suffix")
}
