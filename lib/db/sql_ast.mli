(** Abstract syntax of the SQL subset the engine executes.

    Covers what the paper's prototype needs from PostgreSQL: single- and
    two-table SELECTs with arithmetic, comparisons, BETWEEN, IN (lists and
    uncorrelated subqueries), LIKE, CASE, aggregates, GROUP BY, ORDER BY,
    LIMIT — in particular the TPC-H templates Q4/Q6/Q14 and the proxy's
    multi-range disjunction rewrites. *)

type binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type agg_kind = Count | Sum | Avg | Min | Max

type expr =
  | Lit of Value.t
  | Col of string option * string
      (** optionally qualified column reference [t.c] or [c] *)
  | Binop of binop * expr * expr
  | Cmp of cmp * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Between of expr * expr * expr  (** [Between (e, lo, hi)], inclusive *)
  | In_list of expr * expr list
  | In_select of expr * select     (** uncorrelated [IN (SELECT …)] *)
  | Like of expr * string
  | Case of (expr * expr) list * expr option
      (** [CASE WHEN c THEN e …\[ELSE e\] END] *)
  | Is_null of expr                (** [e IS NULL]; [IS NOT NULL] parses to [Not] *)
  | Agg of agg_kind * expr option  (** [None] encodes [COUNT], star form *)

and select = {
  distinct : bool;
  projections : projection list;
  from : from_item list;
  where : expr option;
  group_by : expr list;
  having : expr option;   (** filter over groups; may contain aggregates *)
  order_by : (expr * order) list;
  limit : int option;
}

and projection = Star | Proj of expr * string option

and from_item = { table : string; alias : string option }

and order = Asc | Desc

val conjuncts : expr -> expr list
(** Flatten a tree of [And] into its conjuncts. *)

val disjuncts : expr -> expr list
(** Flatten a tree of [Or] into its disjuncts. *)

val or_of_list : expr list -> expr
(** Right-fold a non-empty list back into [Or]s. *)

val and_of_list : expr list -> expr
(** Right-fold a non-empty list back into [And]s. *)

(** {2 Traversal}

    The one description of the tree's shape. The statement inside
    [In_select] is not a child: it resolves in its own scope, so a
    walker that needs it (the proxy's column collection, the
    coordinator's subquery resolution) matches [In_select] itself. *)

val children : expr -> expr list
(** The direct sub-expressions, left to right: both operands, the
    [BETWEEN] value and bounds, the [IN] value then its list, each [CASE]
    arm's condition then result then the [ELSE], an aggregate's argument,
    and the left side of [IN (SELECT …)]. *)

val map_children : (expr -> expr) -> expr -> expr
(** Rebuild the node with [f] applied to each of its {!children}. *)

val exists : (expr -> bool) -> expr -> bool
(** Whether the expression or a descendant through {!children}
    satisfies the predicate. *)

val has_aggregate : expr -> bool
(** Whether an [Agg] node occurs (outside nested selects). *)

val has_subquery : expr -> bool
(** Whether an [IN (SELECT …)] occurs. *)

val expr_to_string : expr -> string
(** Render back to parseable SQL (used for logging and parser round-trip
    tests). *)

val select_to_string : select -> string

(** {2 Statements beyond SELECT}

    The DML/DDL subset the engine accepts: CREATE TABLE / CREATE INDEX,
    INSERT … VALUES, DELETE, UPDATE and DROP TABLE. *)

type statement =
  | Select_stmt of select
  | Insert_stmt of {
      table : string;
      columns : string list option;  (** [None] = schema order *)
      rows : expr list list;         (** constant expressions only *)
    }
  | Create_table_stmt of {
      table : string;
      columns : (string * Value.ty) list;
    }
  | Create_index_stmt of { table : string; column : string }
  | Delete_stmt of { table : string; where : expr option }
  | Update_stmt of {
      table : string;
      assignments : (string * expr) list;
      where : expr option;
    }
  | Drop_table_stmt of string

val ty_keyword : Value.ty -> string
(** SQL type name used by the printer ([INTEGER], [FLOAT], [TEXT],
    [BOOLEAN], [DATE]). *)

val statement_to_string : statement -> string
(** Parseable rendering of any statement. *)
