module Special = Because_stats.Special
module Target = Because_mcmc.Target

type t = {
  data : Tomography.t;
  priors : Prior.t array;  (* one per node index *)
  epsilon : float;         (* false-negative rate of the labeling *)
}

let eps = 1e-9

(* Branch form of [Float.max eps (Float.min (1.0 -. eps) p)] (same result,
   NaN included): small enough for the non-flambda inliner, so the hot
   loops pay two compares instead of two boxed calls per node. *)
let clamp p = if p < eps then eps else if p > 1.0 -. eps then 1.0 -. eps else p

let create ?(prior = Prior.default) ?(node_priors = [])
    ?(false_negative_rate = 0.0) data =
  if false_negative_rate < 0.0 || false_negative_rate >= 1.0 then
    invalid_arg "Model.create: false_negative_rate outside [0, 1)";
  let priors = Array.make (Tomography.n_nodes data) prior in
  List.iter
    (fun (asn, node_prior) ->
      match Tomography.index_of data asn with
      | Some i -> priors.(i) <- node_prior
      | None -> ())
    node_priors;
  { data; priors; epsilon = false_negative_rate }

let dataset t = t.data

(* All-float mutable record: unlike a [float ref], accumulating through it
   does not box a float on every store.  The hot loops below run once per
   path per density/gradient evaluation, so this is where the sampler's
   allocation rate lives. *)
type facc = { mutable v : float }

(* Σ ln qᵢ over the nodes of path j, read straight from the point array —
   no per-call closure. *)
let path_log_q_arr t p j =
  let nodes = Tomography.path t.data j in
  let s = { v = 0.0 } in
  for k = 0 to Array.length nodes - 1 do
    s.v <-
      s.v +. Float.log1p (-.clamp (Array.get p (Array.unsafe_get nodes k)))
  done;
  s.v

(* Per-path log probability from S = Σ ln qᵢ.
   Positive label: ln(1−ε) + ln(1 − e^S).
   Clean label:    ln(ε + (1−ε)·e^S). *)
let path_term t label s =
  if label then
    (if t.epsilon = 0.0 then 0.0 else Float.log1p (-.t.epsilon))
    +. Special.log1mexp s
  else if t.epsilon = 0.0 then s
  else Float.log (t.epsilon +. ((1.0 -. t.epsilon) *. Float.exp s))

(* ln qᵢ = log1p(−clamp pᵢ) for every node, computed once per evaluation:
   on a campaign dataset a node lies on tens of paths, and the log was most
   of a path visit's cost.  Each path sum then adds the same operands in
   the same order as summing per visit. *)
let log_q t p =
  let n = Tomography.n_nodes t.data in
  let lq = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set lq i (Float.log1p (-.clamp (Array.get p i)))
  done;
  lq

(* [path_log_q_arr]/[path_term] spelled out in one loop: without flambda a
   float-returning call boxes its argument and result, and those two calls
   per path were most of the likelihood's allocation.  The expressions are
   kept textually identical (including [Special.log1mexp]'s branch
   structure) so the sum is bit-for-bit the composed version. *)
let log_likelihood t p =
  let lq = log_q t p in
  let acc = { v = 0.0 } in
  let s = { v = 0.0 } in
  for j = 0 to Tomography.n_paths t.data - 1 do
    let nodes = Tomography.path t.data j in
    s.v <- 0.0;
    for k = 0 to Array.length nodes - 1 do
      s.v <- s.v +. Array.unsafe_get lq (Array.unsafe_get nodes k)
    done;
    let sv = s.v in
    let term =
      if Tomography.label t.data j then
        (if t.epsilon = 0.0 then 0.0 else Float.log1p (-.t.epsilon))
        +.
        (if sv >= 0.0 then invalid_arg "Special.log1mexp: requires x < 0"
         else if sv > -.Float.log 2.0 then Float.log (-.Float.expm1 sv)
         else Float.log1p (-.Float.exp sv))
      else if t.epsilon = 0.0 then sv
      else Float.log (t.epsilon +. ((1.0 -. t.epsilon) *. Float.exp sv))
    in
    acc.v <- acc.v +. term
  done;
  acc.v

let log_prior t p =
  let acc = { v = 0.0 } in
  for i = 0 to Array.length t.priors - 1 do
    acc.v <- acc.v +. Prior.log_pdf t.priors.(i) (clamp p.(i))
  done;
  acc.v

let log_posterior t p = log_likelihood t p +. log_prior t p

let grad_log_posterior t p =
  let n = Tomography.n_nodes t.data in
  (* Per node, once: the prior term, ln qᵢ for the path sums and qᵢ for the
     per-visit divisions.  [q] holds clamp pᵢ until the prior has read it. *)
  let g = Array.create_float n in
  let lq = Array.create_float n in
  let q = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set q i (clamp (Array.get p i))
  done;
  Prior.grad_log_pdf_into t.priors q g;
  for i = 0 to n - 1 do
    let x = Array.unsafe_get q i in
    Array.unsafe_set lq i (Float.log1p (-.x));
    Array.unsafe_set q i (1.0 -. x)
  done;
  let sacc = { v = 0.0 } in
  for j = 0 to Tomography.n_paths t.data - 1 do
    let nodes = Tomography.path t.data j in
    sacc.v <- 0.0;
    for k = 0 to Array.length nodes - 1 do
      sacc.v <- sacc.v +. Array.unsafe_get lq (Array.unsafe_get nodes k)
    done;
    let s = sacc.v in
    if Tomography.label t.data j then begin
      (* ∂/∂pᵢ ln(1 − e^S) = (e^S / (1 − e^S)) / qᵢ = 1 / (expm1(−S) · qᵢ);
         the ln(1−ε) offset is constant in p. *)
      let ratio = 1.0 /. Float.expm1 (-.s) in
      for k = 0 to Array.length nodes - 1 do
        let i = Array.unsafe_get nodes k in
        g.(i) <- g.(i) +. (ratio /. Array.unsafe_get q i)
      done
    end
    else begin
      (* ∂/∂pᵢ ln(ε + (1−ε)e^S) = −(1−ε)e^S / ((ε + (1−ε)e^S) · qᵢ). *)
      let weight =
        if t.epsilon = 0.0 then 1.0
        else begin
          let q_path = Float.exp s in
          (1.0 -. t.epsilon) *. q_path
          /. (t.epsilon +. ((1.0 -. t.epsilon) *. q_path))
        end
      in
      for k = 0 to Array.length nodes - 1 do
        let i = Array.unsafe_get nodes k in
        g.(i) <- g.(i) -. (weight /. Array.unsafe_get q i)
      done
    end
  done;
  g

(* Stateful evaluator for single-site samplers.  Keeps, per path j, the
   running sufficient statistic S_j = Σ ln q_i and the resulting log
   probability term, plus per-node ln q_i.  A proposal p_i → v then shifts
   every path through i by the same dlq = ln(1−v) − ln(1−p_i), so a delta
   costs O(paths_through i) with O(1) work per path instead of re-summing
   both the old and the new point over each path.  Rejections touch
   nothing; accepts pay one [path_term] per affected path to refresh the
   term cache. *)
let make_cache t p0 =
  let n_paths = Tomography.n_paths t.data in
  let point = Array.map clamp p0 in
  let lq = log_q t p0 in
  let s = Array.make n_paths 0.0 in
  let term = Array.make n_paths 0.0 in
  for j = 0 to n_paths - 1 do
    let nodes = Tomography.path t.data j in
    let acc = { v = 0.0 } in
    for k = 0 to Array.length nodes - 1 do
      acc.v <- acc.v +. lq.(Array.unsafe_get nodes k)
    done;
    s.(j) <- acc.v;
    term.(j) <- path_term t (Tomography.label t.data j) acc.v
  done;
  let cached_delta i v =
    let v = clamp v in
    let dlq = Float.log1p (-.v) -. lq.(i) in
    let acc =
      { v = Prior.log_pdf t.priors.(i) v
            -. Prior.log_pdf t.priors.(i) point.(i) }
    in
    let paths = Tomography.paths_through t.data i in
    (* [path_term] inlined — a delta runs per proposed coordinate, and the
       boxed call per affected path was most of its cost. *)
    for k = 0 to Array.length paths - 1 do
      let j = Array.unsafe_get paths k in
      let sv = s.(j) +. dlq in
      let tj =
        if Tomography.label t.data j then
          (if t.epsilon = 0.0 then 0.0 else Float.log1p (-.t.epsilon))
          +.
          (if sv >= 0.0 then invalid_arg "Special.log1mexp: requires x < 0"
           else if sv > -.Float.log 2.0 then Float.log (-.Float.expm1 sv)
           else Float.log1p (-.Float.exp sv))
        else if t.epsilon = 0.0 then sv
        else Float.log (t.epsilon +. ((1.0 -. t.epsilon) *. Float.exp sv))
      in
      acc.v <- acc.v +. tj -. term.(j)
    done;
    acc.v
  in
  let cached_commit i v =
    let v = clamp v in
    let dlq = Float.log1p (-.v) -. lq.(i) in
    point.(i) <- v;
    lq.(i) <- Float.log1p (-.v);
    let paths = Tomography.paths_through t.data i in
    for k = 0 to Array.length paths - 1 do
      let j = Array.unsafe_get paths k in
      s.(j) <- s.(j) +. dlq;
      term.(j) <- path_term t (Tomography.label t.data j) s.(j)
    done
  in
  (* Checkpoint support.  [s] is accumulated incrementally, so a rebuild
     from the point alone lands an ulp off the live trajectory; the state
     vector therefore carries point ++ s verbatim.  [lq] and [term] are
     pure functions of point and s and are recomputed bit-identically. *)
  let dim = Array.length point in
  let cached_state () = Array.append point s in
  let cached_restore saved =
    if Array.length saved <> dim + n_paths then
      invalid_arg "Model.make_cache: saved cache state has wrong size";
    Array.blit saved 0 point 0 dim;
    Array.blit saved dim s 0 n_paths;
    for i = 0 to dim - 1 do
      lq.(i) <- Float.log1p (-.point.(i))
    done;
    for j = 0 to n_paths - 1 do
      term.(j) <- path_term t (Tomography.label t.data j) s.(j)
    done
  in
  { Target.cached_delta; cached_commit; cached_state; cached_restore }

(* Σ ln qᵢ over path j when coordinate [i] is read as [v]. *)
let path_log_q_swap t p i v j =
  let nodes = Tomography.path t.data j in
  let s = { v = 0.0 } in
  for k = 0 to Array.length nodes - 1 do
    let node = Array.unsafe_get nodes k in
    let x = if node = i then v else Array.get p node in
    s.v <- s.v +. Float.log1p (-.clamp x)
  done;
  s.v

let delta_log_posterior t p i v =
  let v = clamp v in
  let prior_delta =
    Prior.log_pdf t.priors.(i) v -. Prior.log_pdf t.priors.(i) (clamp p.(i))
  in
  let acc = { v = prior_delta } in
  let paths = Tomography.paths_through t.data i in
  for k = 0 to Array.length paths - 1 do
    let j = Array.unsafe_get paths k in
    let label = Tomography.label t.data j in
    let s_old = path_log_q_arr t p j in
    let s_new = path_log_q_swap t p i v j in
    acc.v <- acc.v +. path_term t label s_new -. path_term t label s_old
  done;
  acc.v

let target ?(cached = true) t =
  let cache = if cached then Some (make_cache t) else None in
  Target.create
    ~grad:(grad_log_posterior t)
    ~delta:(delta_log_posterior t)
    ?cache
    ~dim:(Tomography.n_nodes t.data)
    ~support:Target.Unit_interval (log_posterior t)
