package report

// The exit-code contract the isacmp command follows (documented in the
// README's failure-semantics section):
//
//	0  every requested cell produced a result
//	1  fatal error: bad input files, setup failure outside the matrix,
//	   FailFast abort, or a panic that escaped every guard
//	2  usage error: unknown flag values rejected by validation
//	3  partial failure: the matrix completed but one or more cells are
//	   FAILED rows (continue-on-error mode)
const (
	ExitOK      = 0
	ExitFatal   = 1
	ExitUsage   = 2
	ExitPartial = 3
)
