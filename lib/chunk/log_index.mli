(** The log store's in-memory index: chunk id -> payload position.

    A flat open-addressing table.  Ids sit in one byte buffer and
    positions in one int array, so an entry costs no key string, bucket
    or record of its own, and the GC has no per-entry block to trace.
    On a store that grows by a few chunks per write, this index is most
    of what the process keeps per write.  The interface is the subset of
    [Hashtbl] the log store uses. *)

type entry = { off : int; len : int }
(** Payload offset and length in the log file. *)

type t

val create : int -> t
(** An empty index sized for about this many entries. *)

val length : t -> int
val mem : t -> Fb_hash.Hash.t -> bool
val find_opt : t -> Fb_hash.Hash.t -> entry option

val replace : t -> Fb_hash.Hash.t -> entry -> unit
(** Add or overwrite.  @raise Invalid_argument on a negative length. *)

val remove : t -> Fb_hash.Hash.t -> unit
val reset : t -> unit
val iter : (Fb_hash.Hash.t -> entry -> unit) -> t -> unit
val fold : (Fb_hash.Hash.t -> entry -> 'a -> 'a) -> t -> 'a -> 'a
