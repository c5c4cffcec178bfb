// Package testonlyfix seeds the testonly analyzer's golden cases: an
// export only a test file references (flagged), an export a sibling
// declaration references, a method that satisfies fmt.Stringer (clean:
// fmt calls it through the interface), and a justified suppression.
package testonlyfix

import "fmt"

// Orphan is referenced by testonly_test.go alone.
func Orphan() int { return 1 } // want testonly: exported func Orphan is referenced by no non-test file

// Limit is referenced by describe, a sibling non-test declaration.
const Limit = 8

// Label names a fixture value.
type Label struct{ name string }

// String satisfies fmt.Stringer; no file names it.
func (l Label) String() string { return l.name }

func describe() string { return fmt.Sprint(Label{name: "x"}, Limit) }

// Oracle is a reference only tests compare against.
//
//premalint:ignore testonly fixture: testonly_test.go checks Orphan against it
func Oracle() int { return 1 }
