open Ecr

type params = {
  seed : int;
  schemas : int;
  concepts : int;
  population : int;
  views : int;
  storm : int;
  evolve : int;
  rounds : int;
}

let default_params =
  {
    seed = 42;
    schemas = 4;
    concepts = 12;
    population = 160;
    views = 4;
    storm = 24;
    evolve = 8;
    rounds = 2;
  }

type flavor = Ecr_native | Relational_rt | Hierarchical_rt

let flavor_to_string = function
  | Ecr_native -> "ecr"
  | Relational_rt -> "relational"
  | Hierarchical_rt -> "hierarchical"

type phase = { label : string; storm : bool; frames : string list }

type view_def = {
  v_name : string;
  v_base : string;
  v_policy : string;
  v_source : string;
}

type t = {
  params : params;
  gen : Generator.t;
  flavors : (string * flavor) list;
  schemas : Ecr.Schema.t list;
  directives : Integrate.Op.t list;
  script_text : string;
  stores : (Ecr.Schema.t * Instance.Store.t) list;
  result : Integrate.Result.t;
  views : view_def list;
  schedule : phase list;
  checkpoint : int;
  barriers : int list;
}

(* ---- wire frames --------------------------------------------------
   Frames are built by hand rather than through [lib/server]'s Json:
   the scenario engine must not depend on the daemon it exercises.
   Requests only need to parse — the differential harness compares
   responses, not requests. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let frame ~id ?view ?text ?base ?policy op =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"id\":\"%s\",\"op\":\"%s\"" id op);
  (match view with
  | Some v -> Buffer.add_string b (Printf.sprintf ",\"view\":\"%s\"" (json_escape v))
  | None -> ());
  (match text with
  | Some q ->
      (* updates travel in "u", everything else in "q" — see Wire *)
      let key = if String.equal op "update" then "u" else "q" in
      Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" key (json_escape q))
  | None -> ());
  (match base with
  | Some v -> Buffer.add_string b (Printf.sprintf ",\"base\":\"%s\"" (json_escape v))
  | None -> ());
  (match policy with
  | Some v -> Buffer.add_string b (Printf.sprintf ",\"policy\":\"%s\"" (json_escape v))
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- flavoring ---------------------------------------------------- *)

let flavor_of_index i =
  match i mod 3 with
  | 0 -> Ecr_native
  | 1 -> Relational_rt
  | _ -> Hierarchical_rt

(* A rendering that raises (or yields an invalid schema) means this
   component cannot live in that data model — fall back to native ECR,
   deterministically, so [generate] is total. *)
let apply_flavor fl s =
  match fl with
  | Ecr_native -> Some s
  | Relational_rt -> (
      match Translate.Relational.to_ecr (Translate.Relational.of_ecr s) with
      | s' -> if Schema.validate s' = [] then Some s' else None
      | exception
          ( Translate.Relational.Unsupported _ | Invalid_argument _
          | Failure _ | Not_found ) ->
          None)
  | Hierarchical_rt -> (
      match Translate.Hierarchical.to_ecr (Translate.Hierarchical.of_ecr s) with
      | s' -> if Schema.validate s' = [] then Some s' else None
      | exception
          ( Translate.Hierarchical.Unsupported _ | Invalid_argument _
          | Failure _ | Not_found ) ->
          None)

let flavored gen =
  let tagged =
    List.mapi
      (fun i s ->
        let sname = Name.to_string (Schema.name s) in
        let want = flavor_of_index i in
        match apply_flavor want s with
        | Some s' -> ((sname, want), s')
        | None -> ((sname, Ecr_native), s))
      gen.Generator.schemas
  in
  List.split tagged

(* ---- directives --------------------------------------------------- *)

(* Equivalences between the attributes of two structures, answered from
   the generator's global attribute-concept ids. *)
let attr_equivs gen q1 attrs1 q2 attrs2 =
  List.concat_map
    (fun (a1 : Attribute.t) ->
      match gen.Generator.attr_id (Qname.Attr.make q1 a1.Attribute.name) with
      | None -> []
      | Some id1 ->
          List.filter_map
            (fun (a2 : Attribute.t) ->
              match
                gen.Generator.attr_id (Qname.Attr.make q2 a2.Attribute.name)
              with
              | Some id2 when id1 = id2 ->
                  Some
                    (Integrate.Op.Declare_equivalent
                       ( Qname.Attr.make q1 a1.Attribute.name,
                         Qname.Attr.make q2 a2.Attribute.name ))
              | _ -> None)
            attrs2)
    attrs1

let candidate_directives gen schemas =
  let find_class (q : Qname.t) =
    List.find_opt (fun s -> Name.equal (Schema.name s) q.Qname.schema) schemas
    |> Fun.flip Option.bind (fun s -> Schema.find_object q.Qname.obj s)
  in
  let object_equivs =
    List.concat_map
      (fun (q1, q2, _) ->
        match (find_class q1, find_class q2) with
        | Some c1, Some c2 ->
            attr_equivs gen q1 c1.Object_class.attributes q2
              c2.Object_class.attributes
        | _ -> [])
      gen.Generator.related_pairs
  in
  let object_assertions =
    List.filter_map
      (fun (q1, q2, a) ->
        match (find_class q1, find_class q2) with
        | Some _, Some _ -> Some (Integrate.Op.Assert_object (q1, a, q2))
        | _ -> None)
      gen.Generator.related_pairs
  in
  (* relationship pairs: ask the oracle about every cross-schema pair
     still present after flavoring (the hierarchical rendering reifies
     its relationships away, so they simply drop out here) *)
  let rel_directives =
    let arr = Array.of_list schemas in
    let acc = ref [] in
    for i = 0 to Array.length arr - 1 do
      for j = i + 1 to Array.length arr - 1 do
        List.iter
          (fun (r1 : Relationship.t) ->
            List.iter
              (fun (r2 : Relationship.t) ->
                let q1 = Qname.make (Schema.name arr.(i)) r1.Relationship.name in
                let q2 = Qname.make (Schema.name arr.(j)) r2.Relationship.name in
                match
                  gen.Generator.oracle.Integrate.Dda.relationship_assertion q1
                    q2
                with
                | Some a when Integrate.Assertion.integrable a ->
                    List.iter
                      (fun d -> acc := d :: !acc)
                      (attr_equivs gen q1 r1.Relationship.attributes q2
                         r2.Relationship.attributes);
                    acc := Integrate.Op.Assert_relationship (q1, a, q2) :: !acc
                | _ -> ())
              (Schema.relationships arr.(j)))
          (Schema.relationships arr.(i))
      done
    done;
    List.rev !acc
  in
  object_equivs @ object_assertions @ rel_directives

(* ---- queries and values ------------------------------------------- *)

type probe = {
  p_schema : string;
  p_class : string;
  p_qname : Qname.t;
  p_entity : bool;
  p_attrs : Attribute.t list;
  p_char : string option;  (* a char-string attribute, safe in predicates *)
}

let probes_of schemas =
  List.concat_map
    (fun s ->
      let sname = Name.to_string (Schema.name s) in
      List.map
        (fun (oc : Object_class.t) ->
          {
            p_schema = sname;
            p_class = Name.to_string oc.Object_class.name;
            p_qname = Qname.make (Schema.name s) oc.Object_class.name;
            p_entity =
              (match oc.Object_class.kind with
              | Object_class.Entity_set -> true
              | Object_class.Category _ -> false);
            p_attrs = oc.Object_class.attributes;
            p_char =
              List.find_opt
                (fun (a : Attribute.t) ->
                  a.Attribute.domain = Domain.Char_string)
                oc.Object_class.attributes
              |> Option.map (fun (a : Attribute.t) ->
                     Name.to_string a.Attribute.name);
          })
        (Schema.objects s))
    schemas

let key_of p =
  List.find_opt
    (fun (a : Attribute.t) ->
      a.Attribute.key && a.Attribute.domain = Domain.Char_string)
    p.p_attrs
  |> Option.map (fun (a : Attribute.t) -> Name.to_string a.Attribute.name)

let set_attr p =
  match List.filter (fun (a : Attribute.t) -> not a.Attribute.key) p.p_attrs with
  | a :: _ -> a
  | [] -> List.hd p.p_attrs

(* One literal of the attribute's domain, in the query grammar.  [salt]
   keeps inserted keys unique across the schedule. *)
let render_value ~salt (a : Attribute.t) =
  match a.Attribute.domain with
  | Domain.Char_string -> Printf.sprintf "\"n%d\"" salt
  | Domain.Integer -> string_of_int (90000 + salt)
  | Domain.Real -> Printf.sprintf "%d.5" salt
  | Domain.Boolean -> "true"
  | Domain.Date -> "\"2026-08-09\""
  | Domain.Enum (v :: _) -> Printf.sprintf "\"%s\"" v
  | Domain.Enum [] -> "null"
  | Domain.Named _ -> Printf.sprintf "\"n%d\"" salt

(* ---- views -------------------------------------------------------- *)

(* The per-view constant in the predicate never matches real data (tags
   render as "e<tag>" / "s<id>_<tag>"), so each view materializes its
   class's full extent while guaranteeing a distinct query shape — the
   catalog rejects duplicate shapes. *)
let make_views (p : params) probes =
  let cands = List.filter (fun pr -> pr.p_char <> None) probes in
  let n = List.length cands in
  if n = 0 then []
  else
    List.init p.views (fun vi ->
        let step = max 1 (n / max 1 p.views) in
        let pr = List.nth cands (vi * step mod n) in
        {
          v_name = Printf.sprintf "sv%d" vi;
          v_base = pr.p_schema;
          v_policy = List.nth [ "eager"; "lazy"; "manual" ] (vi mod 3);
          v_source =
            Printf.sprintf "select * from %s where %s <> \"zz_sv%d\""
              pr.p_class
              (Option.get pr.p_char)
              vi;
        })

(* ---- the schedule ------------------------------------------------- *)

let make_schedule (p : params) gen (result : Integrate.Result.t) views probes =
  let fid = ref 0 in
  let mk ?view ?text ?base ?policy op =
    incr fid;
    frame ~id:(Printf.sprintf "f%04d" !fid) ?view ?text ?base ?policy op
  in
  let ints =
    List.map
      (fun (oc : Object_class.t) -> Name.to_string oc.Object_class.name)
      (Schema.objects result.Integrate.Result.schema)
  in
  let q_probes = List.filter (fun pr -> pr.p_char <> None) probes in
  let e_probes =
    List.filter (fun pr -> pr.p_entity && key_of pr <> None) probes
  in
  let nth l k = List.nth l (k mod List.length l) in
  let global_query k =
    mk "query" ~text:(Printf.sprintf "select * from %s" (nth ints k))
  in
  (* define + refresh + pin: also the tail of the checkpoint phase, so
     state after either is independent of the history before it *)
  let define_like () =
    List.map
      (fun v ->
        mk "define_view" ~view:v.v_name ~base:v.v_base ~policy:v.v_policy
          ~text:v.v_source)
      views
    @ List.map (fun v -> mk "refresh_view" ~view:v.v_name) views
    @ List.map (fun v -> mk "query" ~view:v.v_name) views
  in
  let storm_frames r =
    List.init p.storm (fun k ->
        let k' = (r * 37) + k in
        match k mod 6 with
        | 0 ->
            let pr = nth q_probes k' in
            mk "query" ~view:pr.p_schema
              ~text:(Printf.sprintf "select * from %s" pr.p_class)
        | 1 ->
            let pr = nth q_probes k' in
            mk "query" ~view:pr.p_schema
              ~text:
                (Printf.sprintf "select * from %s where %s <> \"qq%d\""
                   pr.p_class
                   (Option.get pr.p_char)
                   k')
        | 2 -> (
            match views with
            | [] -> global_query k'
            | _ -> mk "query" ~view:(nth views k').v_name)
        | 3 -> global_query k'
        | 4 ->
            let pr = nth q_probes k' in
            mk "rewrite" ~view:pr.p_schema
              ~text:(Printf.sprintf "select * from %s" pr.p_class)
        | _ -> mk "rewrite" ~text:(Printf.sprintf "select * from %s" (nth ints k')))
  in
  let evolve_frames r =
    List.init p.evolve (fun k ->
        let pr = nth e_probes ((r * 13) + k) in
        let key = Option.get (key_of pr) in
        let salt = (r * 1000) + k in
        let tags = gen.Generator.extent_of pr.p_qname in
        let point =
          match tags with
          | [] -> Printf.sprintf "%s = \"e0\"" key
          | _ -> Printf.sprintf "%s = \"e%d\"" key (nth tags ((r * 7) + k))
        in
        match k mod 3 with
        | 0 ->
            let assigns =
              String.concat ", "
                (List.map
                   (fun (a : Attribute.t) ->
                     Printf.sprintf "%s = %s"
                       (Name.to_string a.Attribute.name)
                       (render_value ~salt a))
                   pr.p_attrs)
            in
            mk "update" ~view:pr.p_schema
              ~text:(Printf.sprintf "insert into %s { %s }" pr.p_class assigns)
        | 1 ->
            let a = set_attr pr in
            mk "update" ~view:pr.p_schema
              ~text:
                (Printf.sprintf "update %s set %s = %s where %s" pr.p_class
                   (Name.to_string a.Attribute.name)
                   (render_value ~salt a) point)
        | _ ->
            mk "update" ~view:pr.p_schema
              ~text:(Printf.sprintf "delete from %s where %s" pr.p_class point))
  in
  let barrier_frames () =
    List.map (fun v -> mk "refresh_view" ~view:v.v_name) views
    @ List.map (fun v -> mk "query" ~view:v.v_name) views
    @ List.mapi (fun i _ -> global_query i) ints
  in
  let checkpoint_frames () =
    (mk "migrate" :: List.map (fun v -> mk "drop_view" ~view:v.v_name) views)
    @ define_like ()
  in
  let drain_frames () =
    List.map (fun v -> mk "query" ~view:v.v_name) views
    @ List.mapi (fun i _ -> global_query i) ints
  in
  let phases = ref [] and barriers = ref [] and ckpt = ref (-1) in
  let push ?(barrier = false) label storm frames =
    if barrier then barriers := List.length !phases :: !barriers;
    phases := { label; storm; frames } :: !phases
  in
  push ~barrier:true "define" false (define_like ());
  push "storm-0" true (storm_frames 0);
  for r = 1 to p.rounds do
    push (Printf.sprintf "evolve-%d" r) false (evolve_frames r);
    push ~barrier:true (Printf.sprintf "barrier-%d" r) false (barrier_frames ());
    push (Printf.sprintf "storm-%d" r) true (storm_frames r);
    if r = 1 then begin
      ckpt := List.length !phases;
      push ~barrier:true "checkpoint" false (checkpoint_frames ())
    end
  done;
  push ~barrier:true "drain" false (drain_frames ());
  (List.rev !phases, !ckpt, List.rev !barriers)

(* ---- generation --------------------------------------------------- *)

let generate (p : params) =
  let gp =
    Generator.
      {
        default_params with
        seed = p.seed;
        schemas = p.schemas;
        concepts = p.concepts;
        population = p.population;
      }
  in
  let gen = Generator.generate gp in
  let flavors, schemas = flavored gen in
  let candidates = candidate_directives gen schemas in
  (* pre-validate: a directive the workspace refuses (a conflict, or a
     structure a rendering dropped) is skipped, so the rendered script
     always applies cleanly end to end *)
  let ws0 = Integrate.Workspace.add_schemas schemas Integrate.Workspace.empty in
  let ws, kept =
    List.fold_left
      (fun (ws, kept) d ->
        match Integrate.Op.try_apply d ws with
        | Ok ws' -> (ws', d :: kept)
        | Error _ -> (ws, kept))
      (ws0, []) candidates
  in
  let directives = List.rev kept in
  let result = Integrate.Workspace.integrate ~name:"G" ws in
  let script_text =
    String.concat "\n"
      (Printf.sprintf "# scenario session: seed=%d schemas=%d" p.seed p.schemas
      :: List.map Integrate.Op.to_string directives)
    ^ "\n"
  in
  let stores = Generator.populate ~schemas gen in
  let probes = probes_of schemas in
  let views = make_views p probes in
  let schedule, checkpoint, barriers = make_schedule p gen result views probes in
  {
    params = p;
    gen;
    flavors;
    schemas;
    directives;
    script_text;
    stores;
    result;
    views;
    schedule;
    checkpoint;
    barriers;
  }

let ops_total t =
  List.fold_left (fun n ph -> n + List.length ph.frames) 0 t.schedule

(* ---- files -------------------------------------------------------- *)

type files = {
  ddl : string;
  script : string;
  data : string;
  schedule : string;
  reads : string;
}

(* Every read-only frame of the schedule, in schedule order: the storm
   phases are exactly the frames that are safe to replay against any
   node at any time — the chaos harness replays them post-failover and
   compares answers byte-for-byte against the single-node reference. *)
let read_frames (t : t) =
  List.concat_map (fun ph -> if ph.storm then ph.frames else []) t.schedule

let write_string path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let schedule_to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# scenario schedule: seed=%d schemas=%d ops=%d\n"
       t.params.seed t.params.schemas (ops_total t));
  List.iteri
    (fun i ph ->
      Buffer.add_string b
        (Printf.sprintf "!phase %s %s%s\n" ph.label
           (if ph.storm then "storm" else "serial")
           (if i = t.checkpoint then " checkpoint" else ""));
      List.iter
        (fun f ->
          Buffer.add_string b f;
          Buffer.add_char b '\n')
        ph.frames)
    t.schedule;
  Buffer.contents b

let write_files ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let files =
    {
      ddl = path "schemas.ecr";
      script = path "session.sit";
      data = path "instances.ecd";
      schedule = path "schedule.txt";
      reads = path "reads.txt";
    }
  in
  Ddl.Printer.save files.ddl t.schemas;
  write_string files.script t.script_text;
  write_string files.data
    (String.concat "\n"
       (List.map (fun (s, st) -> Instance.Loader.to_string s st) t.stores));
  write_string files.schedule (schedule_to_string t);
  write_string files.reads
    (String.concat "" (List.map (fun f -> f ^ "\n") (read_frames t)));
  files

let parse_schedule text =
  let phases = ref [] (* reversed *) in
  let cur = ref None (* label, storm, reversed frames *) in
  let ck = ref (-1) in
  let error = ref None in
  let fail ln fmt =
    Printf.ksprintf (fun s -> error := Some (Printf.sprintf "line %d: %s" ln s)) fmt
  in
  let close () =
    match !cur with
    | None -> ()
    | Some (label, storm, fs) ->
        phases := { label; storm; frames = List.rev fs } :: !phases;
        cur := None
  in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      if !error = None then
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then ()
        else if String.length line >= 7 && String.sub line 0 7 = "!phase " then begin
          close ();
          match String.split_on_char ' ' line with
          | "!phase" :: label :: kind :: rest -> (
              match
                ( (match kind with
                  | "storm" -> Some true
                  | "serial" -> Some false
                  | _ -> None),
                  rest )
              with
              | None, _ -> fail ln "bad phase kind %S (storm or serial)" kind
              | Some st, [] -> cur := Some (label, st, [])
              | Some st, [ "checkpoint" ] ->
                  ck := List.length !phases;
                  cur := Some (label, st, [])
              | Some _, w :: _ -> fail ln "unexpected token %S" w)
          | _ -> fail ln "bad !phase header"
        end
        else
          match !cur with
          | None -> fail ln "frame before any !phase header"
          | Some (label, st, fs) -> cur := Some (label, st, line :: fs))
    (String.split_on_char '\n' text);
  match !error with
  | Some e -> Error e
  | None ->
      close ();
      Ok (List.rev !phases, !ck)

(* ---- transcripts -------------------------------------------------- *)

(* Textual scrub instead of a JSON round-trip: responses are canonical
   single-line JSON, the key ["ms":] appears only as refresh_view's
   wall-clock duration, and no schedule op echoes user text containing
   that byte sequence. *)
let normalize_response line =
  let n = String.length line in
  let key = "\"ms\":" in
  let kl = String.length key in
  let is_num c =
    (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'
  in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + kl <= n && String.sub line !i kl = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '0';
      i := !i + kl;
      while !i < n && is_num line.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char b line.[!i];
      incr i
    end
  done;
  Buffer.contents b

let transcript ~play phases =
  let b = Buffer.create 8192 in
  List.iter
    (fun ph ->
      Buffer.add_string b
        (Printf.sprintf "== %s %s\n" ph.label
           (if ph.storm then "storm" else "serial"));
      let out = play ~storm:ph.storm (Array.of_list ph.frames) in
      Array.iter
        (fun r ->
          Buffer.add_string b (normalize_response r);
          Buffer.add_char b '\n')
        out)
    phases;
  Buffer.contents b

(* ---- ground truth ------------------------------------------------- *)

let missed_true_pairs t =
  let home = Hashtbl.create 64 in
  List.iter
    (fun (oc : Object_class.t) ->
      let n = oc.Object_class.name in
      List.iter
        (fun q -> Hashtbl.replace home (Qname.to_string q) (Name.to_string n))
        (Integrate.Result.component_structures t.result n))
    (Schema.objects t.result.Integrate.Result.schema);
  List.filter
    (fun (q1, q2) ->
      match
        ( Hashtbl.find_opt home (Qname.to_string q1),
          Hashtbl.find_opt home (Qname.to_string q2) )
      with
      | Some a, Some b -> not (String.equal a b)
      | _ -> true)
    t.gen.Generator.true_pairs
