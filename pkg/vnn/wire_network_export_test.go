package vnn

// UnmarshalNetwork's two paths, for the external tests to hold against
// each other.
var (
	DecodeNetworkOnePass = decodeNetwork
	UnmarshalNetworkJSON = unmarshalNetworkJSON
)
