(** SQL rewriting performed by the proxy: replace the predicates on the
    MOPE-encrypted date column with ciphertext-range predicates, and strip
    the statement down to a row-fetch the untrusted server can execute. *)

open Mope_db

val references_column : Sql_ast.expr -> column:string -> bool
(** Whether any (possibly qualified) column reference in the expression has
    this base name. Nested selects are not searched ({!Sql_ast.children}). *)

val cipher_ranges_expr : column:string -> segments:(int * int) list -> Sql_ast.expr
(** [column BETWEEN a AND b OR …] over all the segments. Raises on []. *)

val strip_date_predicates : Sql_ast.select -> column:string -> Sql_ast.select
(** Drop every WHERE conjunct referencing [column]; [where] becomes [None]
    when nothing else remains. The date-less fetch {e template} a cluster
    coordinator specializes per shard. *)

val add_conjunct : Sql_ast.select -> Sql_ast.expr -> Sql_ast.select
(** Conjoin one predicate in front of the existing WHERE clause.
    [add_conjunct (strip_date_predicates s ~column) ranges] is the
    statement a fetch runs; the single-node seam and the cluster
    coordinator both build it this way, so its rendering (a plan-cache
    key) is the same on either path. *)

val to_fetch : Sql_ast.select -> Sql_ast.select
(** Strip DISTINCT, projections, grouping, HAVING, ordering and LIMIT down
    to [SELECT * FROM … WHERE …]: the server returns every matching raw
    (encrypted) row; the proxy post-processes. *)
