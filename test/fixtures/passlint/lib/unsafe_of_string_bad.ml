(* unsafe-of-string fixture (linted as lib/...): two violations, the
   plain and the Stdlib-qualified spelling. *)

let scribble page =
  let b = Bytes.unsafe_of_string page in
  Bytes.set b 0 'x'

let alias page = Stdlib.Bytes.unsafe_of_string page
