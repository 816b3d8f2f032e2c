(** Byte-level compression standing in for the Gzip stage of the paper's
    transport (§5.1). A self-contained LZ77 with a greedy hash-chain
    matcher: exact roundtrip, deterministic output, and compression ratios
    in the same regime as gzip on the repetitive row encodings produced by
    OLTP write sets. *)

val compress : bytes -> bytes
(** Never fails; incompressible input grows by a small framing
    overhead. The match tables are one reused scratch per domain, so
    calls on different domains may overlap but two systhreads of one
    domain must not call it at once. *)

val decompress : bytes -> bytes
(** Inverse of {!compress}. Raises [Invalid_argument] on data not
    produced by {!compress}. *)

val ratio : bytes -> float
(** [ratio b] = compressed size / original size (1.0 for empty input). *)
