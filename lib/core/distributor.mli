(** The distributor.

    Caches provenance records for objects that are not persistent from the
    kernel's perspective — pipes, processes, and application-specific
    objects such as browser sessions or data sets — until they need to be
    materialized on disk (paper, Section 5.5).  An object's provenance is
    flushed to a PASS volume when the object becomes part of the ancestry
    of a persistent object, or when it is explicitly [pass_sync]ed. *)

type t

val create :
  registry:Telemetry.registry ->
  ?tracer:Pvtrace.t ->
  ctx:Ctx.t -> lower:Dpapi.endpoint -> default_volume:string -> unit -> t
(** [create ~registry ~ctx ~lower ~default_volume ()] builds a
    distributor stage.  [default_volume] receives the provenance of
    [pass_sync]ed objects that were created without a volume hint;
    [registry] receives the [distributor.*] instruments; [tracer] (default
    {!Pvtrace.disabled}) records "cached" absorb events and "flushed" flush
    spans. *)

val endpoint : t -> Dpapi.endpoint

val cached_object_count : t -> int

val is_cached_unflushed : t -> Pnode.t -> bool
(** True while the object's provenance lives only in the cache (used by
    tests of invariant 4 in DESIGN.md). *)
