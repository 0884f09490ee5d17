package server

// RelationResponse exposes the boxing path — relationResponse + valueJSON,
// what both result endpoints encoded from until the row codec — to the
// external tests, which keep it as the oracle the wire bytes are held to.
var RelationResponse = relationResponse
