// Package censusfix is the fixture TestCensusRules loads: one module
// whose every declaration is either used or a finding the census must
// report, plus a second module (user/) that imports it.
package censusfix

import "censusfix/internal/lib"

// Run is called only from the user module.
func Run() int { return lib.Used(lib.Options{Set: 1}) }
