open Mope_db
open Sql_ast

let references_column expr ~column =
  exists (function Col (_, name) -> String.equal name column | _ -> false) expr

let cipher_ranges_expr ~column ~segments =
  if segments = [] then invalid_arg "Rewrite.cipher_ranges_expr: no segments";
  or_of_list
    (List.map
       (fun (a, b) ->
         Between (Col (None, column), Lit (Value.Int a), Lit (Value.Int b)))
       segments)

let strip_date_predicates select ~column =
  let kept =
    match select.where with
    | None -> []
    | Some w ->
      List.filter (fun c -> not (references_column c ~column)) (conjuncts w)
  in
  { select with where = (match kept with [] -> None | _ -> Some (and_of_list kept)) }

let add_conjunct select conjunct =
  let rest = match select.where with None -> [] | Some w -> conjuncts w in
  { select with where = Some (and_of_list (conjunct :: rest)) }

let to_fetch select =
  { select with
    distinct = false;
    projections = [ Star ];
    group_by = [];
    having = None;
    order_by = [];
    limit = None }
