package testonlyfix

import "testing"

func TestOrphan(t *testing.T) {
	if Orphan() != Oracle() {
		t.Fail()
	}
}
