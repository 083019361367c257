type neighbor = {
  neighbor_asn : Asn.t;
  relationship : Policy.relationship;
  mrai : float;
}

type config = {
  asn : Asn.t;
  neighbors : neighbor list;
  rfd_scope : Policy.rfd_scope;
  rfd_params : Rfd_params.t;
}

type best =
  | Origin of Update.aggregator option
  | Via of {
      from_asn : Asn.t;
      relationship : Policy.relationship;
      as_path : Apath.t;
      aggregator : Update.aggregator option;
    }

type action =
  | Send of { to_asn : Asn.t; update : Update.t }
  | Set_reuse_timer of { neighbor : Asn.t; prefix : Prefix.t; at : float }
  | Set_mrai_timer of { neighbor : Asn.t; prefix : Prefix.t; at : float }
  | Feed of Update.t

type rib_in_entry = {
  in_path : Apath.t;
  in_aggregator : Update.aggregator option;
}

type mrai_state = {
  mutable gate_until : float;  (* announcements blocked before this time *)
  mutable pending : bool;      (* a flush timer is armed *)
}

(* Monomorphic prefix-keyed table: the router's only per-prefix lookup. *)
module Ptbl = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal
  let hash = Prefix.hash
end)

module Atbl = Hashtbl.Make (struct
  type t = Asn.t

  let equal = Asn.equal
  let hash a = Asn.to_int a * 0x9E3779B1 land max_int
end)

let rel_index = function
  | Policy.Customer -> 0
  | Policy.Peer -> 1
  | Policy.Provider -> 2

(* One neighbor session's static config plus the precomputed policy
   decisions that used to be recomputed per update. *)
type neighbor_state = {
  nb : neighbor;
  local_pref : int;                       (* Policy.local_pref nb.relationship *)
  damps : bool;                           (* RFD applies on this session *)
  export_from : bool array;               (* learned relationship -> export ok *)
}

(* Absent-entry sentinels, compared physically: the per-neighbor columns
   below are plain arrays, so "no entry" costs no option box. *)
let no_route = { in_path = Apath.empty; in_aggregator = None }
let no_update = Update.Withdraw { prefix = Prefix.make 0l 0 }

(* Never mutated: [mrai_state_of] swaps in a fresh record first. *)
let no_gate = { gate_until = 0.0; pending = false }

(* Everything the router keeps about one prefix.  The per-session columns
   are indexed by the dense neighbor id, so one prefix lookup per event
   serves the whole decision process and every adj-RIB-out sync.  The RFD
   and MRAI columns are allocated on first use: most routers never damp,
   and a router without MRAI never gates. *)
type slot = {
  mutable origin : best option;           (* Some (Origin _) iff originated *)
  mutable loc_rib : best option;
  withdraw : Update.t;                    (* Withdraw for this prefix, shared *)
  mutable last_feed : Update.t;           (* no_update: nothing observed *)
  rib_in : rib_in_entry array;            (* no_route: nothing heard *)
  adj_out : Update.t array;               (* last update sent; no_update: none *)
  mutable rfd : Rfd.t option array;       (* [||] until the first damped event *)
  mutable mrai : mrai_state array;        (* [||] until the first MRAI gate *)
}

(* Always-on tallies for the rare RFD state transitions; a couple of int
   writes per suppression keeps them off the telemetry fast-path budget. *)
type stats = {
  mutable rfd_suppressions : int;
  mutable rfd_releases : int;
}

type table_sizes = {
  rib_in_entries : int;
  rfd_states : int;
  adj_out_entries : int;
  mrai_states : int;
  loc_rib_entries : int;
}

type t = {
  cfg : config;
  nstates : neighbor_state array;         (* in config order *)
  index_of : int Atbl.t;                  (* neighbor ASN -> nstates index *)
  slots : slot Ptbl.t;
  stats : stats;
}

let create cfg =
  let n = List.length cfg.neighbors in
  let index_of = Atbl.create (2 * max 1 n) in
  let make_state nb =
    if Asn.equal nb.neighbor_asn cfg.asn then
      invalid_arg "Router.create: self-neighboring";
    if Atbl.mem index_of nb.neighbor_asn then
      invalid_arg "Router.create: duplicate neighbor";
    Atbl.replace index_of nb.neighbor_asn (Atbl.length index_of);
    {
      nb;
      local_pref = Policy.local_pref nb.relationship;
      damps =
        Policy.rfd_applies cfg.rfd_scope ~neighbor:nb.neighbor_asn
          ~relationship:nb.relationship;
      export_from =
        Array.map
          (fun learned ->
            Policy.export_ok ~learned_from:(Some learned)
              ~towards:nb.relationship)
          [| Policy.Customer; Policy.Peer; Policy.Provider |];
    }
  in
  let nstates =
    (* Fold left so dense ids follow config order. *)
    List.fold_left (fun acc nb -> make_state nb :: acc) [] cfg.neighbors
    |> List.rev |> Array.of_list
  in
  {
    cfg;
    nstates;
    index_of;
    (* Starts tiny and grows with the prefixes actually heard: at Internet
       scale pre-sizing for the whole prefix universe would cost memory
       before the first update flows. *)
    slots = Ptbl.create 8;
    stats = { rfd_suppressions = 0; rfd_releases = 0 };
  }

let asn t = t.cfg.asn
let config t = t.cfg
let stats t = t.stats

let table_sizes t =
  let count f = Ptbl.fold (fun _ slot acc -> acc + f slot) t.slots 0 in
  let present absent column =
    Array.fold_left (fun acc e -> if e == absent then acc else acc + 1) 0 column
  in
  {
    rib_in_entries = count (fun s -> present no_route s.rib_in);
    rfd_states = count (fun s -> present None s.rfd);
    adj_out_entries = count (fun s -> present no_update s.adj_out);
    mrai_states = count (fun s -> present no_gate s.mrai);
    loc_rib_entries = count (fun s -> if s.loc_rib == None then 0 else 1);
  }

let index_exn t asn_ =
  match Atbl.find_opt t.index_of asn_ with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Router %s: %s is not a neighbor"
           (Asn.to_string t.cfg.asn) (Asn.to_string asn_))

let slot_of t prefix =
  match Ptbl.find_opt t.slots prefix with
  | Some slot -> slot
  | None ->
      let n = Array.length t.nstates in
      let slot =
        {
          origin = None;
          loc_rib = None;
          withdraw = Update.Withdraw { prefix };
          last_feed = no_update;
          rib_in = Array.make n no_route;
          adj_out = Array.make n no_update;
          rfd = [||];
          mrai = [||];
        }
      in
      Ptbl.replace t.slots prefix slot;
      slot

let rfd_state t ~neighbor ~prefix =
  match (Atbl.find_opt t.index_of neighbor, Ptbl.find_opt t.slots prefix) with
  | Some i, Some slot when Array.length slot.rfd > 0 -> slot.rfd.(i)
  | _ -> None

let rfd_state_ensure t slot i =
  if Array.length slot.rfd = 0 then
    slot.rfd <- Array.make (Array.length t.nstates) None;
  match slot.rfd.(i) with
  | Some s -> s
  | None ->
      let s = Rfd.create t.cfg.rfd_params in
      slot.rfd.(i) <- Some s;
      s

exception Found_suppressed

let is_suppressing t ~now =
  (* Early exit on the first suppressed entry instead of folding over every
     RFD record of every session. *)
  try
    Ptbl.iter
      (fun _ slot ->
        Array.iter
          (function
            | Some s when Rfd.suppressed s ~now ->
                raise_notrace Found_suppressed
            | Some _ | None -> ())
          slot.rfd)
      t.slots;
    false
  with Found_suppressed -> true

let best_route t prefix =
  match Ptbl.find_opt t.slots prefix with
  | Some slot -> slot.loc_rib
  | None -> None

(* ------------------------------------------------------------------ *)
(* Decision process                                                     *)

let best_equal a b =
  match (a, b) with
  | Origin x, Origin y -> Update.aggregator_equal x y
  | Via x, Via y ->
      Asn.equal x.from_asn y.from_asn
      && Apath.equal x.as_path y.as_path
      && Update.aggregator_equal x.aggregator y.aggregator
  | Origin _, Via _ | Via _, Origin _ -> false

(* A session's route counts unless RFD suppresses it.  [Rfd.suppressed]
   writes the decayed penalty back, so it is asked exactly when a route and
   a damping state both exist, in neighbor order. *)
let usable slot i ~now =
  slot.rib_in.(i) != no_route
  && (Array.length slot.rfd = 0
     ||
     match slot.rfd.(i) with
     | Some s -> not (Rfd.suppressed s ~now)
     | None -> true)

(* Gao–Rexford selection over the dense neighbor array: highest local-pref,
   then shortest path (O(1) via the interned length), then lowest ASN. *)
let decide t ~now slot =
  match slot.origin with
  | Some _ as origin -> origin
  | None ->
      let winner = ref (-1) in
      let w_pref = ref min_int and w_len = ref max_int in
      for i = 0 to Array.length t.nstates - 1 do
        if usable slot i ~now then begin
          let ns = t.nstates.(i) in
          let pref = ns.local_pref in
          let len = Apath.length slot.rib_in.(i).in_path in
          let better =
            !winner < 0
            || (if pref <> !w_pref then pref > !w_pref
                else if len <> !w_len then len < !w_len
                else
                  Asn.compare ns.nb.neighbor_asn
                    t.nstates.(!winner).nb.neighbor_asn
                  < 0)
          in
          if better then begin
            winner := i;
            w_pref := pref;
            w_len := len
          end
        end
      done;
      if !winner < 0 then None
      else begin
        let ns = t.nstates.(!winner) and entry = slot.rib_in.(!winner) in
        Some
          (Via
             {
               from_asn = ns.nb.neighbor_asn;
               relationship = ns.nb.relationship;
               as_path = entry.in_path;
               aggregator = entry.in_aggregator;
             })
      end

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let export_update t prefix = function
  | Origin aggregator ->
      Update.Announce { prefix; as_path = [ t.cfg.asn ]; aggregator }
  | Via { as_path; aggregator; _ } ->
      Update.Announce
        { prefix; as_path = t.cfg.asn :: Apath.nodes as_path; aggregator }

(* What this AS exports for [best]: one update shared by every neighbor
   session and the feed observation (the AS prepends itself to the best
   path regardless of the receiver), or the slot's withdraw when there is
   no route. *)
let export_of t prefix slot = function
  | Some b -> export_update t prefix b
  | None -> slot.withdraw

(* Whether [best] is advertised towards a neighbor: split horizon, then the
   valley-free decision, a precomputed per-(learned relationship, neighbor)
   bit. *)
let exports_towards best ns =
  match best with
  | None -> false
  | Some (Origin _) -> true
  | Some (Via v) ->
      (not (Asn.equal v.from_asn ns.nb.neighbor_asn)) (* split horizon *)
      && ns.export_from.(rel_index v.relationship)

let mrai_state_of t slot i =
  if Array.length slot.mrai = 0 then
    slot.mrai <- Array.make (Array.length t.nstates) no_gate;
  let s = slot.mrai.(i) in
  if s != no_gate then s
  else begin
    let s = { gate_until = 0.0; pending = false } in
    slot.mrai.(i) <- s;
    s
  end

(* Push the desired state towards neighbor [i] — [export] when [best] is
   advertised there, else a withdrawal — respecting MRAI for announcements;
   the resulting action, if any, is consed onto [acc]. *)
let send slot i ns update acc =
  slot.adj_out.(i) <- update;
  Send { to_asn = ns.nb.neighbor_asn; update } :: acc

let sync_neighbor t ~now prefix best slot i ~export acc =
  let ns = t.nstates.(i) in
  let previously = slot.adj_out.(i) in
  if not (exports_towards best ns) then
    match previously with
    | Update.Withdraw _ -> acc (* already withdrawn, or never announced *)
    | Update.Announce _ ->
        (* Withdrawals bypass MRAI (RFC 4271 §9.2.1.1). *)
        send slot i ns slot.withdraw acc
  else if Update.equal previously export then acc
  else if ns.nb.mrai <= 0.0 then send slot i ns export acc
  else begin
    let ms = mrai_state_of t slot i in
    if now >= ms.gate_until then begin
      ms.gate_until <- now +. ns.nb.mrai;
      send slot i ns export acc
    end
    else if ms.pending then acc
    else begin
      ms.pending <- true;
      Set_mrai_timer
        { neighbor = ns.nb.neighbor_asn; prefix; at = ms.gate_until }
      :: acc
    end
  end

let feed_action slot observation =
  let same =
    if slot.last_feed == no_update then
      (* A withdraw for a never-announced prefix is not an observation. *)
      not (Update.is_announce observation)
    else Update.equal slot.last_feed observation
  in
  if same then []
  else begin
    slot.last_feed <- observation;
    [ Feed observation ]
  end

let reconsider t ~now prefix slot =
  let old_best = slot.loc_rib in
  let new_best = decide t ~now slot in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b -> not (best_equal a b)
    | None, Some _ | Some _, None -> true
  in
  if not changed then []
  else begin
    slot.loc_rib <- new_best;
    let export = export_of t prefix slot new_best in
    (* Neighbor syncs in config order, then the feed observation. *)
    let acc = ref (feed_action slot export) in
    for i = Array.length t.nstates - 1 downto 0 do
      acc := sync_neighbor t ~now prefix new_best slot i ~export !acc
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let classify_rfd_event existing update interned =
  match update with
  | Update.Withdraw _ ->
      if existing == no_route then None (* spurious withdrawal: no penalty *)
      else Some Rfd.Withdrawal
  | Update.Announce a ->
      if existing == no_route then Some Rfd.Readvertisement
      else begin
        let same_path = Apath.equal interned existing.in_path in
        let same_aggregator =
          Update.aggregator_equal a.aggregator existing.in_aggregator
        in
        if same_path && same_aggregator then None (* exact duplicate *)
        else Some Rfd.Attribute_change
      end

let handle_update t ~now ~from update =
  let i = index_exn t from in
  let prefix = Update.prefix update in
  let slot = slot_of t prefix in
  let existing = slot.rib_in.(i) in
  (* Loop prevention: an announcement containing our own ASN is rejected,
     which for RIB purposes equals a withdrawal of that session's route. *)
  let update =
    if Update.path_contains t.cfg.asn update then slot.withdraw else update
  in
  (* Intern the received path once: one traversal pre-computes the length
     and hash every later comparison uses. *)
  let interned =
    match update with
    | Update.Announce a -> Apath.of_list a.as_path
    | Update.Withdraw _ -> Apath.empty
  in
  let timer_actions =
    if t.nstates.(i).damps then begin
      match classify_rfd_event existing update interned with
      | None -> []
      | Some event ->
          let state = rfd_state_ensure t slot i in
          let was = Rfd.suppressed state ~now in
          Rfd.record state ~now event;
          let is_now = Rfd.suppressed state ~now in
          if is_now && not was then begin
            t.stats.rfd_suppressions <- t.stats.rfd_suppressions + 1;
            match Rfd.reuse_eta state ~now with
            | Some at -> [ Set_reuse_timer { neighbor = from; prefix; at } ]
            | None -> []
          end
          else []
    end
    else []
  in
  slot.rib_in.(i) <-
    (match update with
    | Update.Withdraw _ -> no_route
    | Update.Announce a -> { in_path = interned; in_aggregator = a.aggregator });
  timer_actions @ reconsider t ~now prefix slot

let originate t ~now ?aggregator prefix =
  let slot = slot_of t prefix in
  slot.origin <- Some (Origin aggregator);
  reconsider t ~now prefix slot

let withdraw_origin t ~now prefix =
  let slot = slot_of t prefix in
  slot.origin <- None;
  reconsider t ~now prefix slot

let handle_reuse_check t ~now ~neighbor ~prefix =
  match rfd_state t ~neighbor ~prefix with
  | None -> []
  | Some state ->
      if Rfd.suppressed state ~now then begin
        (* Penalty grew since the timer was set: re-arm. *)
        match Rfd.reuse_eta state ~now with
        | Some at when at > now -> [ Set_reuse_timer { neighbor; prefix; at } ]
        | Some _ | None -> []
      end
      else begin
        t.stats.rfd_releases <- t.stats.rfd_releases + 1;
        reconsider t ~now prefix (slot_of t prefix)
      end

(* Prefixes whose slot satisfies [f], in prefix order. *)
let sorted_slots t f =
  Ptbl.fold
    (fun prefix slot acc -> if f slot then (prefix, slot) :: acc else acc)
    t.slots []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

let handle_session_down t ~now ~neighbor =
  let i = index_exn t neighbor in
  (* Routes learned on the session are gone: clear the adj-RIB-in ... *)
  let affected = sorted_slots t (fun slot -> slot.rib_in.(i) != no_route) in
  (* ... and forget what we advertised over it, together with its MRAI
     state — a re-established session starts from an empty adj-RIB-out. *)
  Ptbl.iter
    (fun _ slot ->
      slot.rib_in.(i) <- no_route;
      slot.adj_out.(i) <- no_update;
      if Array.length slot.mrai > 0 then slot.mrai.(i) <- no_gate)
    t.slots;
  (* Path re-exploration: every prefix routed via the dead session is
     reconsidered, producing withdrawals or failover announcements
     downstream. *)
  List.concat_map (fun (prefix, slot) -> reconsider t ~now prefix slot) affected

let handle_session_up t ~now ~neighbor =
  let i = index_exn t neighbor in
  (* The peer's RIB is empty after the reset: re-advertise the current
     loc-RIB from scratch, subject to the usual export policy. *)
  List.concat_map
    (fun (prefix, slot) ->
      slot.adj_out.(i) <- no_update;
      if Array.length slot.mrai > 0 then slot.mrai.(i) <- no_gate;
      let export = export_of t prefix slot slot.loc_rib in
      sync_neighbor t ~now prefix slot.loc_rib slot i ~export [])
    (sorted_slots t (fun slot -> Option.is_some slot.loc_rib))

let handle_mrai_expiry t ~now ~neighbor ~prefix =
  let i = index_exn t neighbor in
  let slot = slot_of t prefix in
  let ms = mrai_state_of t slot i in
  ms.pending <- false;
  ms.gate_until <- Float.min ms.gate_until now;
  let export = export_of t prefix slot slot.loc_rib in
  sync_neighbor t ~now prefix slot.loc_rib slot i ~export []
