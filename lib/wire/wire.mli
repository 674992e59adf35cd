(** Little-endian wire primitives.

    Shared by the provenance record format, the ext3 journal, the Lasagna
    WAP log and the PA-NFS protocol, so every on-disk and on-wire format in
    the system decodes the same way. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {2 Writers into preallocated bytes}

    Same byte layout as the [put_*] writers, for encoders that compute
    their size first and fill one [Bytes.t] of exactly that size.  Each
    returns the offset just past what it wrote. *)

val set_u8 : Bytes.t -> int -> int -> int
val set_u32 : Bytes.t -> int -> int -> int
val set_i64 : Bytes.t -> int -> int -> int
val set_string : Bytes.t -> int -> string -> int

val get_u8 : string -> int ref -> int
val get_u32 : string -> int ref -> int
val get_i64 : string -> int ref -> int
val get_string : string -> int ref -> string
val get_bool : string -> int ref -> bool
val get_list : (string -> int ref -> 'a) -> string -> int ref -> 'a list
