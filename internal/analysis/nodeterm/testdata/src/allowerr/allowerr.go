//fmm:deterministic
package allowerr

import "time"

// Suppressions are themselves checked: missing reason, unknown analyzer
// (including one the suite no longer has), and allows that suppress nothing
// are driver ("fmmvet") diagnostics.

func MissingReason() int64 {
	return time.Now().Unix() //fmm:allow nodeterm // want `malformed //fmm:allow` `time.Now in deterministic scope`
}

func UnknownAnalyzer() int64 {
	return time.Now().Unix() //fmm:allow nodetrem typo in analyzer name // want `unknown analyzer nodetrem` `time.Now in deterministic scope`
}

func RetiredAnalyzer(m map[int]int) int {
	n := 0
	for range m { //fmm:allow mapiter the suite no longer has this analyzer // want `unknown analyzer mapiter`
		n++
	}
	return n
}

func UnusedAllow(x int) int {
	return x + 1 //fmm:allow nodeterm nothing here to suppress // want `unused //fmm:allow nodeterm`
}
