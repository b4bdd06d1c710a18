package core

// Bundle internals for the external tests, which run PET and ACC side by
// side and so cannot live in this package (acc imports core).
type ModelBundle = modelBundle

var (
	DecodeBundle = decodeBundle
	EncodeBundle = encodeBundle
)
