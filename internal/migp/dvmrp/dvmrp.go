// Package dvmrp is a shim: the interior protocols are rows of
// internal/migp's table (migp.DVMRP and its siblings). It remains because
// the frozen benchmark/ module spells its protocol dvmrp.New(); import
// migp instead.
package dvmrp

import "mascbgmp/internal/migp"

// New returns migp.DVMRP().
func New() *migp.Protocol { return migp.DVMRP() }
