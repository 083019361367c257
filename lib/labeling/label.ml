open Because_bgp
module Dump = Because_collector.Dump

type labeled_path = {
  prefix : Prefix.t;
  vp : Because_collector.Vantage.t;
  path : Asn.t list;
  rfd : bool;
  matched_pairs : int;
  total_pairs : int;
  pairs : Signature.pair list;
  mean_r_delta : float option;
  alternatives : Asn.t list list;
}

type evidence = {
  mutable damped : int;
  mutable clean : int;
  mutable r_deltas : float list;
}

(* A Burst–Break window overlapping a collection gap is torn: its missing
   updates would masquerade as suppression, so it contributes no evidence. *)
let torn gaps (burst_start, _burst_end, break_end) =
  List.exists (fun (lo, hi) -> lo <= break_end && hi >= burst_start) gaps

let label_vp_prefix ?min_r_delta ?margin ?(match_threshold = 0.9)
    ?(gaps = []) ~records ~windows () =
  let windows = List.filter (fun w -> not (torn gaps w)) windows in
  match records with
  | [] -> []
  | first :: _ ->
      let usable = Dump.announcements_with_valid_aggregator records in
      let times =
        List.map (fun (r : Dump.record) -> (r.export_at, r.update)) usable
      in
      let pairs =
        List.map
          (fun window ->
            Signature.analyse_pair ?min_r_delta ?margin ~times ~window ())
          windows
      in
      let table = Hashtbl.create 4 in
      let evidence_for path =
        match Hashtbl.find_opt table path with
        | Some e -> e
        | None ->
            let e = { damped = 0; clean = 0; r_deltas = [] } in
            Hashtbl.replace table path e;
            e
      in
      List.iter
        (fun (p : Signature.pair) ->
          if p.Signature.damped then begin
            (match p.Signature.readvertisement_path with
            | Some path ->
                let e = evidence_for path in
                e.damped <- e.damped + 1;
                (match p.Signature.r_delta with
                | Some d -> e.r_deltas <- d :: e.r_deltas
                | None -> ())
            | None -> ());
            (* The failover path that carried the Burst's updates while the
               primary was suppressed demonstrably did not damp. *)
            match (p.Signature.burst_dominant_path,
                   p.Signature.readvertisement_path)
            with
            | Some dominant, Some readv
              when List.compare Asn.compare dominant readv <> 0 ->
                let e = evidence_for dominant in
                e.clean <- e.clean + 1
            | _ -> ()
          end
          else begin
            match p.Signature.burst_dominant_path with
            | Some path ->
                let e = evidence_for path in
                e.clean <- e.clean + 1
            | None -> ()
          end)
        pairs;
      let vp = first.Dump.vp in
      let prefix = Update.prefix first.Dump.update in
      let all_paths =
        Hashtbl.fold (fun path _ acc -> path :: acc) table []
        |> List.sort (List.compare Asn.compare)
      in
      List.map
        (fun path ->
          let e = Hashtbl.find table path in
          let total = e.damped + e.clean in
          let rfd =
            total > 0
            && float_of_int e.damped /. float_of_int total >= match_threshold
          in
          let mean_r_delta =
            match e.r_deltas with
            | [] -> None
            | ds -> Some (Because_stats.Summary.mean (Array.of_list ds))
          in
          {
            prefix;
            vp;
            path;
            rfd;
            matched_pairs = e.damped;
            total_pairs = total;
            pairs;
            mean_r_delta;
            alternatives =
              List.filter
                (fun other -> List.compare Asn.compare other path <> 0)
                all_paths;
          })
        all_paths

let label_all ?min_r_delta ?margin ?match_threshold ?(gaps_of = fun _ -> [])
    ~records ~windows_of () =
  (* Group records per (vp, prefix), preserving chronology.  A record of a
     prefix without Burst–Break windows (an anchor, background churn) could
     never be labeled, so it is skipped before it is hashed or kept. *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (r : Dump.record) ->
      let prefix = Update.prefix r.update in
      match windows_of prefix with
      | [] -> ()
      | _ :: _ ->
          let key = (r.vp.Because_collector.Vantage.vp_id, prefix) in
          let cell =
            match Hashtbl.find_opt groups key with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.replace groups key c;
                c
          in
          cell := r :: !cell)
    records;
  let keys =
    Hashtbl.fold (fun key _ acc -> key :: acc) groups []
    |> List.sort (fun (ia, pa) (ib, pb) ->
           match Int.compare ia ib with
           | 0 -> Prefix.compare pa pb
           | c -> c)
  in
  List.concat_map
    (fun ((vp_id, prefix) as key) ->
      let records = List.rev !(Hashtbl.find groups key) in
      label_vp_prefix ?min_r_delta ?margin ?match_threshold
        ~gaps:(gaps_of vp_id) ~records ~windows:(windows_of prefix) ())
    keys

let observations labeled =
  List.map (fun lp -> (lp.path, lp.rfd)) labeled
