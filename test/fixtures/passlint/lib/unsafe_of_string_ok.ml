(* unsafe-of-string fixture (linted as lib/...): copying into fresh bytes
   and freezing a buffer nobody else holds are both fine — zero
   findings. *)

let patched page ~off piece =
  let b = Bytes.of_string page in
  Bytes.blit_string piece 0 b off (String.length piece);
  Bytes.unsafe_to_string b
